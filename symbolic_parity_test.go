package eatss_test

// Backend-parity pins for the pluggable evaluation seam: the closed-form
// symbolic evaluator must reproduce the simulator point-by-point — same
// valid set, same energies (to float noise), same winners — across the
// paper's full gemm space and reduced spaces of the whole kernel catalog
// on both GPUs. Residual fallbacks are allowed, but they must be
// reported as such in ExploreStats, never silently.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/gpusim"
	"repro/internal/ppcg"
	"repro/internal/symbolic"
)

// parityTol bounds the relative disagreement on float figures. The
// backends share the same model functions, so the budget is float
// noise, not modeling error.
const parityTol = 1e-9

func relDiffF(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// sweepBoth runs the same space through both backends with caching off
// and checks the point-by-point contract, returning the symbolic run's
// stats.
func sweepBoth(t *testing.T, kernel string, g *eatss.GPU, space []map[string]int64) eatss.ExploreStats {
	t.Helper()
	k, err := eatss.Kernel(kernel)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	opt := eatss.SweepOptions{Cache: eatss.NoCache}

	simCfg := base
	simCfg.Evaluator = eatss.EvalSimulate
	simPts, simStats := prog.ExploreSpaceOpt(ctx, g, space, simCfg, opt)

	symCfg := base
	symCfg.Evaluator = eatss.EvalSymbolic
	symPts, symStats := prog.ExploreSpaceOpt(ctx, g, space, symCfg, opt)

	if simStats.Symbolic != 0 || simStats.Residual != 0 {
		t.Fatalf("%s on %s: simulate sweep reported backend attribution %d/%d",
			kernel, g.Name, simStats.Symbolic, simStats.Residual)
	}
	if got, want := symStats.Symbolic+symStats.Residual, len(space); got != want {
		t.Fatalf("%s on %s: auto sweep attributed %d of %d points",
			kernel, g.Name, got, want)
	}
	if len(simPts) != len(symPts) {
		t.Fatalf("%s on %s: valid sets diverge: simulate %d vs symbolic %d points",
			kernel, g.Name, len(simPts), len(symPts))
	}
	simBest, symBest := -1, -1
	for i := range simPts {
		a, b := &simPts[i], &symPts[i]
		for name, v := range a.Tiles {
			if b.Tiles[name] != v {
				t.Fatalf("%s on %s: point %d tile order diverges: %v vs %v",
					kernel, g.Name, i, a.Tiles, b.Tiles)
			}
		}
		if a.Result.Flops != b.Result.Flops ||
			a.Result.L2Sectors != b.Result.L2Sectors ||
			a.Result.DRAMBytes != b.Result.DRAMBytes {
			t.Fatalf("%s on %s: point %d integer counters diverge: %+v vs %+v",
				kernel, g.Name, i, a.Result, b.Result)
		}
		if d := relDiffF(a.Result.EnergyJ, b.Result.EnergyJ); d > parityTol {
			t.Fatalf("%s on %s: point %d energy diverges by %.3e: %g vs %g",
				kernel, g.Name, i, d, a.Result.EnergyJ, b.Result.EnergyJ)
		}
		if d := relDiffF(a.Result.GFLOPS, b.Result.GFLOPS); d > parityTol {
			t.Fatalf("%s on %s: point %d GFLOPS diverges by %.3e", kernel, g.Name, i, d)
		}
		if simBest < 0 || a.Result.EnergyJ < simPts[simBest].Result.EnergyJ {
			simBest = i
		}
		if symBest < 0 || b.Result.EnergyJ < symPts[symBest].Result.EnergyJ {
			symBest = i
		}
	}
	if simBest != symBest {
		t.Fatalf("%s on %s: backends disagree on the minimum-energy point: %d vs %d",
			kernel, g.Name, simBest, symBest)
	}
	return symStats
}

// TestSymbolicSweepParityGemm pins full-space parity on the paper's
// gemm 15^3 study, and that every point had a closed form.
func TestSymbolicSweepParityGemm(t *testing.T) {
	k, err := eatss.Kernel("gemm")
	if err != nil {
		t.Fatal(err)
	}
	stats := sweepBoth(t, "gemm", eatss.GA100(), eatss.PaperSpace(k))
	if stats.Residual != 0 {
		t.Fatalf("gemm fell back to the simulator on %d points", stats.Residual)
	}
}

// TestSymbolicSweepParityCatalog sweeps a reduced space of every catalog
// kernel on both GPUs through both backends.
func TestSymbolicSweepParityCatalog(t *testing.T) {
	for _, gpu := range []*eatss.GPU{eatss.GA100(), eatss.Xavier()} {
		for _, name := range affine.Catalog() {
			k, err := eatss.Kernel(name)
			if err != nil {
				t.Fatal(err)
			}
			space := eatss.Space(k, []int64{8, 32, 200})
			stats := sweepBoth(t, name, gpu, space)
			if stats.Residual > 0 {
				t.Logf("%s on %s: %d/%d residual points", name, gpu.Name, stats.Residual, len(space))
			}
		}
	}
}

// TestSelectBestEvalParity pins the selection protocol: SelectBestEval
// on the symbolic backend must pick the same configuration with the same
// figures as on the simulate backend.
func TestSelectBestEvalParity(t *testing.T) {
	for _, name := range []string{"gemm", "syrk", "jacobi-2d"} {
		k, err := eatss.Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		g := eatss.GA100()
		ctx := context.Background()
		prog := stage(t, k, nil)
		sim, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSimulate)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSymbolic)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sym.Chosen.Selection.Tiles, sim.Chosen.Selection.Tiles; len(got) != len(want) {
			t.Fatalf("%s: chosen tiles diverge: %v vs %v", name, got, want)
		} else {
			for loop, v := range want {
				if got[loop] != v {
					t.Fatalf("%s: chosen tiles diverge: %v vs %v", name, got, want)
				}
			}
		}
		if d := relDiffF(sym.Chosen.Result.EnergyJ, sim.Chosen.Result.EnergyJ); d > parityTol {
			t.Fatalf("%s: chosen energy diverges by %.3e", name, d)
		}
	}
}

// symbolicSink keeps BenchmarkSymbolicSpeedup's evaluations observable,
// so the compiler cannot drop them.
var symbolicSink gpusim.Result

// minSymbolicSpeedup is the per-point win the closed-form evaluator must
// deliver over compile+simulate: the backend's reason to exist.
const minSymbolicSpeedup = 10.0

// BenchmarkSymbolicSpeedup walks gemm's 15^3 space on GA100 through the
// staged compile+simulate pipeline and through the symbolic plan derived
// from the same analysis, both single-threaded, and fails when the
// speedup falls under the 10x floor. Each side repeats its walk for at
// least 0.25 s and keeps its fastest pass, since noise only ever
// inflates a pass. The plan derivation is charged once, as a sweep pays
// it. TestSymbolicSweepParityGemm pins the two backends' parity.
//
//	go test -run '^$' -bench '^BenchmarkSymbolicSpeedup$' -benchtime 1x .
func BenchmarkSymbolicSpeedup(b *testing.B) {
	k := affine.MustLookup("gemm")
	g := arch.GA100()
	space := ppcg.Space(k, ppcg.PaperSpaceSizes())
	opts := codegen.Options{UseShared: true, Precision: affine.FP64}
	ctx := context.Background()
	prog := analysis.Analyze(k, nil)
	simulate := func(tiles map[string]int64) {
		if mk, err := ppcg.CompileAnalyzed(ctx, prog, nil, tiles, g, opts); err == nil {
			symbolicSink = gpusim.Simulate(mk, g)
		}
	}

	for range b.N {
		simulateSec := fastestPass(func() {
			for _, tiles := range space {
				simulate(tiles)
			}
		})

		t0 := time.Now()
		plan, err := symbolic.Derive(prog, g, symbolic.Config{UseShared: opts.UseShared, Precision: opts.Precision}, nil)
		if err != nil {
			b.Fatalf("symbolic derivation failed for %s: %v", k.Name, err)
		}
		deriveSec := time.Since(t0).Seconds()
		symbolicSec := deriveSec + fastestPass(func() {
			for _, tiles := range space {
				res, err := plan.Eval(tiles)
				if errors.Is(err, symbolic.ErrResidual) {
					simulate(tiles)
					continue
				}
				symbolicSink = res
			}
		})

		speedup := simulateSec / symbolicSec
		b.ReportMetric(1e6*simulateSec/float64(len(space)), "simulate-us/pt")
		b.ReportMetric(1e6*symbolicSec/float64(len(space)), "symbolic-us/pt")
		b.ReportMetric(1e6*deriveSec, "derive-us")
		b.ReportMetric(speedup, "speedup")
		if speedup < minSymbolicSpeedup {
			b.Fatalf("symbolic speedup %.2fx under the %.0fx floor", speedup, minSymbolicSpeedup)
		}
	}
}

// fastestPass repeats pass for at least 0.25 s of wall clock and returns
// its fastest run in seconds.
func fastestPass(pass func()) float64 {
	best := math.Inf(1)
	for t0 := time.Now(); time.Since(t0) < 250*time.Millisecond; {
		p0 := time.Now()
		pass()
		best = math.Min(best, time.Since(p0).Seconds())
	}
	return best
}
