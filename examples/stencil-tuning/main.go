// stencil-tuning reproduces the Sec. V-D case study: high-dimensional
// kernels (heat-3d, conv-2d, mttkrp) need warp fractions below a full
// warp, because tiles constrained to multiples of 32 (or even 16) cannot
// satisfy the resource envelope of 3-D data tiles. The example sweeps
// warp fractions and shared-memory splits per kernel and prints which
// formulations are even feasible, then compares the best configuration
// against the default PPCG tiling.
//
// Run with:
//
//	go run ./examples/stencil-tuning
package main

import (
	"context"
	"fmt"
	"log"

	eatss "repro"
)

func main() {
	ctx := context.Background()
	g := eatss.GA100()
	for _, name := range eatss.NonPolybenchKernels() {
		k, err := eatss.Kernel(name)
		if err != nil {
			log.Fatal(err)
		}
		// Stage the kernel once; all eight solves and every evaluation
		// below reuse the analysis.
		prog, err := eatss.Analyze(k, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s (depth %d) on %s ===\n", name, k.MaxDepth(), g.Name)

		type candidate struct {
			wf, split float64
			sel       *eatss.Selection
			res       eatss.Result
		}
		var best *candidate
		for _, split := range []float64{0.0, 0.5} {
			for _, wf := range []float64{1.0, 0.5, 0.25, 0.125} {
				opts := eatss.Options{
					SplitFactor:      split,
					WarpFraction:     wf,
					Precision:        eatss.FP64,
					ProblemSizeAware: true,
				}
				sel, err := prog.SelectTiles(g, opts)
				if err != nil {
					fmt.Printf("  wf=%.3f split=%.2f: infeasible (tiles must be multiples of %.0f)\n",
						wf, split, wf*32)
					continue
				}
				res, _, err := prog.RunCtx(ctx, g, sel.Tiles, eatss.RunConfig{
					UseShared: split > 0, Precision: eatss.FP64,
				})
				if err != nil {
					continue
				}
				fmt.Printf("  wf=%.3f split=%.2f: tiles=%v  %.1f GFLOP/s  %.2f J  PPW %.2f\n",
					wf, split, sel.Tiles, res.GFLOPS, res.EnergyJ, res.PPW)
				c := &candidate{wf: wf, split: split, sel: sel, res: res}
				if best == nil || c.res.PPW > best.res.PPW {
					best = c
				}
			}
		}
		if best == nil {
			fmt.Println("  no feasible configuration")
			continue
		}

		def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{
			UseShared: best.split > 0, Precision: eatss.FP64,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  best: wf=%.3f split=%.2f => %.2fx speedup, %.2fx energy vs default PPCG\n\n",
			best.wf, best.split, def.TimeSec/best.res.TimeSec, best.res.EnergyJ/def.EnergyJ)
	}
}
