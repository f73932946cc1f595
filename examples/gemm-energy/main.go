// gemm-energy reproduces the paper's motivation study (Secs. I and II):
//
//  1. Fig. 1 — gemm's average power grows with problem size and shifts
//     from a static-dominated to a dynamic-dominated regime.
//  2. Fig. 2 — an exhaustive tile-space exploration of 2mm (3,375
//     variants) shows wide performance AND energy spreads, with
//     same-performance variants differing in energy: the reason energy
//     must be a first-class objective in tile selection.
//
// Run with:
//
//	go run ./examples/gemm-energy
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	eatss "repro"
)

func main() {
	g := eatss.GA100()

	fmt.Println("--- Fig. 1: gemm power vs problem size (GA100) ---")
	ctx := context.Background()
	k, err := eatss.Kernel("gemm")
	if err != nil {
		log.Fatal(err)
	}
	// The reuse analysis is size-independent, so one staged Program
	// serves every problem size through RunConfig.Params.
	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		log.Fatal(err)
	}
	idle := g.ConstantWatts + g.StaticWatts
	fmt.Printf("%8s %12s %14s %12s\n", "N=M=K", "total (W)", "dynamic (W)", "GFLOP/s")
	for _, n := range []int64{1000, 2000, 3000, 4000, 5000, 6000} {
		res, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{
			Params:    map[string]int64{"NI": n, "NJ": n, "NK": n},
			UseShared: true, Precision: eatss.FP64,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %12.1f %14.1f %12.1f\n", n, res.AvgPowerW, res.AvgPowerW-idle, res.GFLOPS)
	}

	fmt.Println("\n--- Fig. 2: the 2mm tile space (3,375 variants) ---")
	k2, err := eatss.Kernel("2mm")
	if err != nil {
		log.Fatal(err)
	}
	prog2, err := eatss.Analyze(k2, nil)
	if err != nil {
		log.Fatal(err)
	}
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	pts, _ := prog2.ExploreSpaceOpt(ctx, g, eatss.PaperSpace(k2), cfg, eatss.SweepOptions{})
	def, _, err := prog2.RunCtx(ctx, g, eatss.DefaultTiles(k2), cfg)
	if err != nil {
		log.Fatal(err)
	}

	perfs := make([]float64, len(pts))
	for i, p := range pts {
		perfs[i] = p.Result.GFLOPS
	}
	sort.Float64s(perfs)
	fmt.Printf("variants: %d; default (P): %.1f GFLOP/s, %.2f J\n", len(pts), def.GFLOPS, def.EnergyJ)
	fmt.Printf("perf range: %.1f .. %.1f GFLOP/s (median %.1f)\n",
		perfs[0], perfs[len(perfs)-1], perfs[len(perfs)/2])

	// The paper's key observation: variants at the same performance
	// level differ in energy. Bucket variants within 5% of the default
	// performance and report their energy spread.
	var sameSpeedEnergies []float64
	for _, p := range pts {
		if p.Result.GFLOPS > def.GFLOPS*0.95 && p.Result.GFLOPS < def.GFLOPS*1.05 {
			sameSpeedEnergies = append(sameSpeedEnergies, p.Result.EnergyJ)
		}
	}
	sort.Float64s(sameSpeedEnergies)
	if len(sameSpeedEnergies) >= 2 {
		lo := sameSpeedEnergies[0]
		hi := sameSpeedEnergies[len(sameSpeedEnergies)-1]
		fmt.Printf("variants within +-5%% of default performance: %d\n", len(sameSpeedEnergies))
		fmt.Printf("their energy spread: %.2f .. %.2f J (%.0f%% headroom at equal speed)\n",
			lo, hi, 100*(hi-lo)/hi)
	}

	fmt.Println("\n=> the same-performance energy spread is why EATSS treats energy as a primary objective.")
}
