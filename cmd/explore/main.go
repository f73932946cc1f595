// Command explore runs the exhaustive tile-space studies of Secs. II and V:
// it evaluates every tile configuration of a kernel's space on the
// simulated GPU and prints the performance/energy distribution with the
// default-PPCG and EATSS markers.
//
// Examples:
//
//	explore -kernel 2mm                  # the paper's 3,375-variant space
//	explore -kernel mvt -gpu xavier
//	explore -kernel heat-3d -top 20
//	explore -kernel 2mm -j 8             # sweep with 8 parallel workers
package main

import (
	"context"
	"flag"
	"fmt"
	"sort"

	eatss "repro"

	"repro/internal/cli"
)

func main() {
	kernel := flag.String("kernel", "2mm", "kernel name")
	gpuName := flag.String("gpu", "ga100", "GPU: ga100 | xavier")
	top := flag.Int("top", 10, "how many top variants to print")
	paper15 := flag.Bool("paper15", false, "force the 15-sizes-per-dim space for 3D kernels")
	j := flag.Int("j", 0, "parallel sweep workers (0 = GOMAXPROCS, 1 = sequential)")
	evalName := flag.String("evaluator", "simulate", "evaluation backend: simulate | symbolic (auto = symbolic)")
	listen := cli.ListenFlag()
	cli.SetUsage("explore", "evaluate a kernel's full tile space on the simulated GPU",
		"explore -kernel 2mm                  # the paper's 3,375-variant space",
		"explore -kernel mvt -gpu xavier",
		"explore -kernel 2mm -j 8             # sweep with 8 parallel workers",
		"explore -kernel 2mm -evaluator auto  # closed-form evaluation with fallback",
		"explore -kernel 2mm -listen :8080    # watch the sweep at /progress")
	flag.Parse()
	defer cli.Serve(*listen)()

	k, err := eatss.Kernel(*kernel)
	if err != nil {
		fatal(err)
	}
	g, err := eatss.GPUByName(*gpuName)
	if err != nil {
		fatal(err)
	}
	params := k.Params
	if g.Name == "Xavier" {
		if std, err := eatss.StandardParams(*kernel); err == nil {
			params = std
		}
	}
	evaluator, err := eatss.ParseEvaluator(*evalName)
	if err != nil {
		fatal(err)
	}
	cfg := eatss.RunConfig{Params: params, UseShared: true, Precision: eatss.FP64, Evaluator: evaluator}

	// One staged analysis serves the whole sweep, the default-PPCG
	// evaluation and the EATSS protocol below.
	prog, err := eatss.Analyze(k, params)
	if err != nil {
		fatal(err)
	}

	var space []map[string]int64
	if *paper15 || k.MaxDepth() <= 3 {
		space = eatss.PaperSpace(k)
	} else {
		space = eatss.Space(k, []int64{4, 8, 16, 32, 64})
	}
	pts, stats := prog.ExploreSpaceOpt(context.Background(), g, space, cfg,
		eatss.SweepOptions{Workers: *j})
	if len(pts) == 0 {
		fatal(fmt.Errorf("no valid variants for %s (%d of %d configurations failed to map)",
			*kernel, stats.Skipped, len(space)))
	}

	def, _, err := prog.RunCtx(context.Background(), g, eatss.DefaultTiles(k), cfg)
	if err != nil {
		fatal(err)
	}

	beatPerf, beatEnergy := 0, 0
	for _, p := range pts {
		if p.Result.GFLOPS > def.GFLOPS {
			beatPerf++
		}
		if p.Result.EnergyJ < def.EnergyJ {
			beatEnergy++
		}
	}

	fmt.Printf("kernel %s on %s: %d/%d valid variants (evaluator %s, %d symbolic / %d residual)\n",
		k.Name, g.Name, len(pts), len(space), evaluator, stats.Symbolic, stats.Residual)
	fmt.Printf("P (default PPCG 32^d): %.1f GFLOP/s  %.3f J  PPW %.2f\n", def.GFLOPS, def.EnergyJ, def.PPW)
	fmt.Printf("variants beating default: %.1f%% on perf, %.1f%% on energy\n",
		100*float64(beatPerf)/float64(len(pts)), 100*float64(beatEnergy)/float64(len(pts)))

	if best, err := prog.SelectBestEval(context.Background(), g, eatss.FP64, eatss.EvalSimulate); err == nil {
		u := best.Chosen.Result
		fmt.Printf("U (EATSS, split %.2f %v): %.1f GFLOP/s  %.3f J  PPW %.2f\n",
			best.Chosen.SharedFrac, best.Chosen.Selection.Tiles, u.GFLOPS, u.EnergyJ, u.PPW)
	}

	byPerf := append([]eatss.SpacePoint(nil), pts...)
	sort.Slice(byPerf, func(i, j int) bool { return byPerf[i].Result.GFLOPS > byPerf[j].Result.GFLOPS })
	fmt.Printf("\ntop %d by performance:\n", *top)
	for i := 0; i < *top && i < len(byPerf); i++ {
		p := byPerf[i]
		fmt.Printf("  %v  %.1f GFLOP/s  %.3f J  PPW %.2f\n", p.Tiles, p.Result.GFLOPS, p.Result.EnergyJ, p.Result.PPW)
	}

	byEnergy := append([]eatss.SpacePoint(nil), pts...)
	sort.Slice(byEnergy, func(i, j int) bool { return byEnergy[i].Result.EnergyJ < byEnergy[j].Result.EnergyJ })
	fmt.Printf("\ntop %d by energy:\n", *top)
	for i := 0; i < *top && i < len(byEnergy); i++ {
		p := byEnergy[i]
		fmt.Printf("  %v  %.1f GFLOP/s  %.3f J  PPW %.2f\n", p.Tiles, p.Result.GFLOPS, p.Result.EnergyJ, p.Result.PPW)
	}
}

func fatal(err error) { cli.Fatal(err) }
