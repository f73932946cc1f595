// Command eatss runs the Energy-Aware Tile Size Selection pipeline on one
// kernel: it builds the non-linear integer model, solves it, optionally
// prints the formulation and the generated CUDA-style code, and simulates
// the chosen configuration against the PPCG default.
//
// Examples:
//
//	eatss -kernel gemm                       # paper's walkthrough (GA100)
//	eatss -kernel heat-3d -warpfrac 0.125    # high-dimensional kernel
//	eatss -kernel 2mm -gpu xavier -best      # full 3-split protocol
//	eatss -kernel gemm -dump-model -cuda     # show formulation and code
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	eatss "repro"

	"repro/internal/cli"
	"repro/internal/obs"
)

func main() {
	kernel := flag.String("kernel", "gemm", "kernel name (see -list)")
	file := flag.String("file", "", "load the kernel from a DSL file instead of the catalog")
	gpuName := flag.String("gpu", "ga100", "GPU: ga100 | xavier | v100")
	gpuFile := flag.String("gpu-file", "", "load the GPU description from a JSON file")
	split := flag.Float64("split", 0.5, "shared-memory split factor in [0, 1]")
	warpFrac := flag.Float64("warpfrac", 0.5, "warp alignment fraction (1, 0.5, 0.25, 0.125)")
	fp32 := flag.Bool("fp32", false, "use single precision (default FP64)")
	best := flag.Bool("best", false, "run the full protocol: 3 shared splits, keep best PPW")
	dumpModel := flag.Bool("dump-model", false, "print the generated formulation")
	explain := flag.Bool("explain", false, "print per-constraint usage and binding constraints")
	showPower := flag.Bool("power", false, "print the average power breakdown")
	profileFlag := flag.Bool("profile", false, "print the per-level/per-array energy attribution and the diff vs the PPCG default")
	profileOut := flag.String("profile-out", "", "write the attribution profile as JSON to this file")
	surfaceOut := flag.String("surface", "", "sweep the tile space and write the energy surface to this file (.csv = long-format points, else JSON with heatmap slices)")
	surfaceSizes := flag.String("surface-sizes", "4,8,16,32,64", "comma-separated tile sizes enumerated per dimension by -surface")
	cuda := flag.Bool("cuda", false, "print the generated CUDA-style code")
	list := flag.Bool("list", false, "list available kernels")
	lintFlag := flag.Bool("lint", false, "lint the kernel and exit (nonzero on error-severity findings)")
	verify := flag.Bool("verify", false, "independently certify every selection (and, without -best, its compiled mapping)")
	timeTile := flag.Int64("timetile", 0, "fuse this many time steps per launch on repeated stencil nests (>1 enables)")
	regTile := flag.Int64("regtile", 0, "register micro-tile factor: each thread computes an r x r block (>1 enables)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event file of the pipeline (load in chrome://tracing or ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print the metrics snapshot (solver nodes, prunes, simulated traffic) after the run")
	summary := flag.Bool("summary", false, "print the span tree summary after the run")
	verbose := flag.Bool("v", false, "debug-level diagnostics on stderr")
	listen := cli.ListenFlag()
	cli.SetUsage("eatss", "run the Energy-Aware Tile Size Selection pipeline on one kernel",
		"eatss -kernel gemm                       # paper's walkthrough (GA100)",
		"eatss -kernel heat-3d -warpfrac 0.125    # high-dimensional kernel",
		"eatss -kernel 2mm -gpu xavier -best      # full 3-split protocol",
		"eatss -kernel gemm -dump-model -cuda     # show formulation and code",
		"eatss -kernel gemm -listen 127.0.0.1:8080  # watch live at /progress")
	flag.Parse()
	// Every input is a flag, so a stray word is a usage error; in
	// particular "-verify all" must not parse as -verify plus an
	// ignored word.
	if flag.NArg() > 0 {
		cli.Usagef("unexpected argument %q", flag.Arg(0))
	}
	// -best runs its own splits and warp fractions and prints only the
	// candidates, so these flags would be silently ignored.
	if *best {
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "split", "warpfrac", "dump-model", "explain", "power", "cuda", "timetile", "regtile":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			cli.Usagef("-best does not use %s", strings.Join(ignored, ", "))
		}
	}
	// Out-of-range fractions are usage errors, like a malformed flag.
	if !(*split >= 0 && *split <= 1) {
		cli.Usagef("-split %g is outside [0, 1]", *split)
	}
	if !(*warpFrac > 0 && *warpFrac <= 1) {
		cli.Usagef("-warpfrac %g is outside (0, 1]", *warpFrac)
	}
	if *verbose {
		cli.Verbose()
	}
	defer cli.Serve(*listen)()

	// The run is one trace: every span of the pipeline lands in it, under
	// the same 2048-span cap as a daemon request.
	ctx := context.Background()
	if *tracePath != "" || *metrics || *summary || *listen != "" {
		obs.EnableMetrics()
		var run *obs.Trace
		ctx, run = obs.StartTrace(ctx, "eatss")
		var rootSpan *obs.Span
		ctx, rootSpan = obs.Start(ctx, "eatss.pipeline")
		defer func() {
			rootSpan.End()
			spans := run.Snapshot()
			if *summary {
				fmt.Println("\n--- span tree ---")
				fmt.Print(obs.TreeSummaryOf(spans))
			}
			if *metrics {
				fmt.Println("\n--- metrics ---")
				fmt.Print(obs.MetricsSummary())
			}
			if *tracePath != "" {
				f, err := os.Create(*tracePath)
				if err != nil {
					cli.Logger.Error(err.Error(), "tool", "eatss")
					return
				}
				defer f.Close()
				if err := obs.WriteChromeTraceOf(f, spans); err != nil {
					cli.Logger.Error(err.Error(), "tool", "eatss")
					return
				}
				fmt.Printf("\nwrote Chrome trace (%d spans, %d dropped) to %s\n", len(spans), run.Dropped(), *tracePath)
			}
		}()
	}

	if *list {
		for _, n := range eatss.Kernels() {
			fmt.Println(n)
		}
		return
	}

	var k *eatss.AffineKernel
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		k, err = eatss.ParseKernelNamed(string(src), *file)
		if err != nil {
			fatal(err)
		}
		for _, plan := range eatss.Schedule(k) {
			if plan.Changed {
				fmt.Printf("scheduled nest %s: loop order %v\n", plan.Nest, plan.Order)
			}
		}
	} else {
		var err error
		k, err = eatss.Kernel(*kernel)
		if err != nil {
			fatal(err)
		}
	}
	if *lintFlag {
		diags := eatss.Lint(k, nil)
		if len(diags) == 0 {
			fmt.Printf("%s: no findings\n", k.Name)
			return
		}
		fmt.Print(eatss.RenderDiags(diags))
		if eatss.LintHasErrors(diags) {
			os.Exit(1)
		}
		return
	}
	var g *eatss.GPU
	if *gpuFile != "" {
		var err error
		g, err = eatss.LoadGPU(*gpuFile)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		g, err = eatss.GPUByName(*gpuName)
		if err != nil {
			cli.Usagef("%v", err)
		}
	}
	// A fraction under one thread of the warp would be silently rounded
	// up to a one-thread alignment step.
	if *warpFrac*float64(g.ThreadsPerWarp) < 1 {
		cli.Usagef("-warpfrac %g is below one thread of %s's %d-thread warp", *warpFrac, g.Name, g.ThreadsPerWarp)
	}
	prec := eatss.FP64
	if *fp32 {
		prec = eatss.FP32
	}
	params := k.Params
	if g.Name == "Xavier" && *file == "" {
		if std, err := eatss.StandardParams(*kernel); err == nil {
			params = std
		}
	}

	// Stage the analysis once; the solve, compile, simulate and explain
	// steps below all reuse it.
	prog, err := eatss.AnalyzeCtx(ctx, k, params)
	if err != nil {
		fatal(err)
	}

	if *best {
		b, err := prog.SelectBestEval(ctx, g, prec, eatss.EvalSimulate)
		if err != nil {
			fatal(err)
		}
		if *verify {
			for _, c := range b.Candidates {
				if err := eatss.Certify(prog.Kernel(), g, c.Selection); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("certified %d candidate selection(s)\n", len(b.Candidates))
		}
		fmt.Printf("EATSS protocol for %s on %s (%d candidates, %d solver calls)\n",
			k.Name, g.Name, len(b.Candidates), b.SolverCalls)
		for _, c := range b.Candidates {
			marker := " "
			if c.Selection == b.Chosen.Selection {
				marker = "*"
			}
			fmt.Printf("%s split=%.2f tiles=%v  %.1f GFLOP/s  %.1f W  %.3f J  PPW %.2f\n",
				marker, c.SharedFrac, c.Selection.Tiles,
				c.Result.GFLOPS, c.Result.AvgPowerW, c.Result.EnergyJ, c.Result.PPW)
		}
		compareDefault(ctx, prog, g, params, b.Chosen.Result)
		emitProfile(ctx, prog, g, params, b.Chosen.Selection, b.Chosen.Result, *profileFlag, *profileOut)
		emitSurface(ctx, prog, g, params, prec, *surfaceSizes, *surfaceOut)
		return
	}

	opts := eatss.Options{
		SplitFactor:      *split,
		WarpFraction:     *warpFrac,
		Precision:        prec,
		ProblemSizeAware: true,
	}
	sel, err := prog.SelectTilesCtx(ctx, g, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(sel.String())
	if *dumpModel {
		fmt.Println("\n--- formulation ---")
		fmt.Print(sel.Model())
	}
	if *explain {
		_, rendered := prog.Explain(g, sel)
		fmt.Println("\n--- constraint usage ---")
		fmt.Print(rendered)
	}

	cfg := eatss.RunConfig{
		Params: params, UseShared: *split > 0, Precision: prec,
		TimeTileFuse: *timeTile, RegTile: *regTile,
	}
	if *verify {
		if err := eatss.Certify(prog.Kernel(), g, sel); err != nil {
			fatal(err)
		}
	}
	if *cuda || *summary || *verify {
		mk, err := prog.CompileCtx(ctx, g, sel.Tiles, cfg)
		if err != nil {
			fatal(err)
		}
		if *verify {
			if err := eatss.CertifyMapped(mk, g); err != nil {
				fatal(err)
			}
			fmt.Println("certified the selection and its compiled mapping")
		}
		if *cuda {
			fmt.Println("\n--- generated CUDA ---")
			fmt.Print(mk.CUDASource())
		}
		if *summary && (cfg.TimeTileFuse > 1 || cfg.RegTile > 1) {
			fmt.Printf("tiling fallbacks: time-tile %d nest(s), register-tile %d nest(s)\n",
				mk.TimeTileFallbacks, mk.RegTileFallbacks)
		}
	}

	res, _, err := prog.RunCtx(ctx, g, sel.Tiles, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nsimulated: %.1f GFLOP/s  %.1f W  %.3f J  PPW %.2f  (%.2f ms)\n",
		res.GFLOPS, res.AvgPowerW, res.EnergyJ, res.PPW, res.TimeSec*1e3)
	if *showPower {
		b := res.Power
		fmt.Printf("power breakdown: const %.1fW  static %.1fW  SM %.1fW  L2 %.1fW  DRAM %.1fW  shared %.1fW  liveness %.1fW\n",
			b.Constant, b.Static, b.DynSM, b.DynL2, b.DynDRAM, b.DynShared, b.DynLive)
	}
	compareDefault(ctx, prog, g, params, res)
	emitProfile(ctx, prog, g, params, sel, res, *profileFlag, *profileOut)
	emitSurface(ctx, prog, g, params, prec, *surfaceSizes, *surfaceOut)
}

func compareDefault(ctx context.Context, prog *eatss.Program, g *eatss.GPU, params map[string]int64, res eatss.Result) {
	def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(prog.Kernel()), eatss.RunConfig{
		Params: params, UseShared: true, Precision: eatss.FP64,
	})
	if err != nil {
		return
	}
	fmt.Printf("vs default PPCG (32^d): %.1f GFLOP/s  %.1f W  PPW %.2f  =>  %.2fx perf, %.2fx PPW, %.2fx energy\n",
		def.GFLOPS, def.AvgPowerW, def.PPW,
		res.GFLOPS/def.GFLOPS, res.PPW/def.PPW, res.EnergyJ/def.EnergyJ)
}

// emitProfile computes the energy attribution of the chosen
// configuration and, as requested, prints the report (with the energy
// explanation and the diff against the PPCG default) and/or writes the
// profile JSON. The profile is also published to the live server's
// /profile endpoint when -listen is active.
func emitProfile(ctx context.Context, prog *eatss.Program, g *eatss.GPU, params map[string]int64, sel *eatss.Selection, res eatss.Result, show bool, outPath string) {
	if !show && outPath == "" {
		return
	}
	p, err := eatss.ProfileOf(&res, sel.Tiles)
	if err != nil {
		fatal(err)
	}
	eatss.PublishProfile(p)
	if show {
		fmt.Println("\n--- energy attribution ---")
		fmt.Print(p.Render())
		slacks, _ := prog.Explain(g, sel)
		fmt.Println()
		fmt.Print(eatss.ExplainEnergy(sel, slacks, p))
		defTiles := eatss.DefaultTiles(prog.Kernel())
		def, _, err := prog.RunCtx(ctx, g, defTiles, eatss.RunConfig{
			Params: params, UseShared: true, Precision: eatss.FP64,
		})
		if err == nil {
			if pd, err := eatss.ProfileOf(&def, defTiles); err == nil {
				pd.Label = "ppcg-default"
				fmt.Println("\n--- profile diff (A=default, B=selected) ---")
				fmt.Print(eatss.ProfileDiff(pd, p).Render())
			}
		}
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(p); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote attribution profile to %s\n", outPath)
	}
}

// emitSurface sweeps the kernel's tile space over the -surface-sizes
// grid and writes the energy surface: long-format CSV when the path
// ends in .csv, JSON with heatmap slices otherwise.
func emitSurface(ctx context.Context, prog *eatss.Program, g *eatss.GPU, params map[string]int64, prec eatss.Precision, sizesCSV, path string) {
	if path == "" {
		return
	}
	var sizes []int64
	for _, part := range strings.Split(sizesCSV, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad -surface-sizes entry %q", part))
		}
		sizes = append(sizes, v)
	}
	if len(sizes) == 0 {
		fatal(fmt.Errorf("-surface-sizes is empty"))
	}
	space := eatss.Space(prog.Kernel(), sizes)
	pts, stats := prog.ExploreSpaceOpt(ctx, g, space, eatss.RunConfig{
		Params: params, UseShared: true, Precision: prec,
	}, eatss.SweepOptions{})
	s := eatss.NewSweepSurface(prog.Kernel().Name, g.Name, pts)
	eatss.PublishSweepSurface(s)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if strings.HasSuffix(path, ".csv") {
		err = s.WriteCSV(f)
	} else {
		err = s.WriteJSON(f)
	}
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote energy surface (%d/%d points evaluated, %d skipped) to %s\n",
		stats.Evaluated, len(space), stats.Skipped, path)
}

func fatal(err error) { cli.Fatal(err) }
