package eatss_test

// End-to-end observability tests: an enabled run of the real pipeline
// must produce the span tree and metrics the paper's Sec. V-G
// measurements are read from.

import (
	"context"
	"testing"

	eatss "repro"

	"repro/internal/obs"
)

// withObs runs fn with the observability layer enabled and clean, and
// restores the disabled default so other tests keep the zero-cost path.
func withObs(t *testing.T, fn func()) {
	t.Helper()
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	fn()
}

func TestSelectTilesEmitsSolverRoundSpans(t *testing.T) {
	withObs(t, func() {
		prog := stage(t, eatss.MustKernel("gemm"), nil)
		g := eatss.GA100()
		ctx, root := obs.Start(context.Background(), "test.pipeline")
		sel, err := prog.SelectTilesCtx(ctx, g, eatss.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		root.End()

		// The iterative scheme of Sec. IV-L: each satisfiable round must
		// improve on the previous one, so the recorded objective
		// trajectory is strictly increasing. The shrink pass re-solves
		// under its own span with a different objective, so restrict to
		// the rounds parented under core.solve.
		solves := obs.SpansNamed("core.solve")
		if len(solves) != 1 {
			t.Fatalf("core.solve spans = %d, want 1", len(solves))
		}
		var objectives []int64
		for _, sp := range obs.SpansNamed("smt.round") {
			if sp.Parent != solves[0].ID {
				continue
			}
			if a, ok := sp.Attr("objective"); ok {
				objectives = append(objectives, a.IntV)
			}
		}
		if len(objectives) < 2 {
			t.Fatalf("got %d satisfiable solver rounds, want >= 2", len(objectives))
		}
		for i := 1; i < len(objectives); i++ {
			if objectives[i] <= objectives[i-1] {
				t.Fatalf("objective trajectory not strictly increasing: %v", objectives)
			}
		}
		// The shrink pass re-solves at the fixed optimum, so the last
		// improvement round's objective is the selection's.
		if objectives[len(objectives)-1] < sel.Objective {
			t.Fatalf("trajectory tops out at %d below selection objective %d",
				objectives[len(objectives)-1], sel.Objective)
		}

		// The selection tree must hang off the caller's span.
		sels := obs.SpansNamed("core.select_tiles")
		if len(sels) != 1 {
			t.Fatalf("core.select_tiles spans = %d, want 1", len(sels))
		}
		if sels[0].Parent != root.ID {
			t.Fatalf("core.select_tiles parent = %d, want %d", sels[0].Parent, root.ID)
		}
		if len(obs.SpansNamed("core.model_gen")) != 1 {
			t.Fatal("missing core.model_gen span")
		}
	})
}

func TestPipelinePhasesAndMetrics(t *testing.T) {
	withObs(t, func() {
		g := eatss.GA100()
		ctx, root := obs.Start(context.Background(), "test.pipeline")
		prog, err := eatss.AnalyzeCtx(ctx, eatss.MustKernel("gemm"), nil)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := prog.SelectTilesCtx(ctx, g, eatss.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := prog.RunCtx(ctx, g, sel.Tiles, eatss.RunConfig{UseShared: true}); err != nil {
			t.Fatal(err)
		}
		root.End()

		// The acceptance phases: model generation, solver rounds,
		// compilation, simulation.
		for _, phase := range []string{"core.model_gen", "smt.round", "ppcg.compile", "codegen.map_nest", "gpusim.simulate", "gpusim.nest"} {
			if len(obs.SpansNamed(phase)) == 0 {
				t.Errorf("missing %s span", phase)
			}
		}
		// Every span must be finished and properly parented.
		byID := make(map[uint64]bool)
		for _, sp := range obs.Spans() {
			byID[sp.ID] = true
		}
		for _, sp := range obs.Spans() {
			if sp.EndAt.IsZero() {
				t.Errorf("span %s never ended", sp.Name)
			}
			if sp.Parent != 0 && !byID[sp.Parent] {
				t.Errorf("span %s has unknown parent %d", sp.Name, sp.Parent)
			}
		}

		s := obs.Snapshot()
		for _, name := range []string{"smt.solve_calls", "smt.nodes", "core.selections", "ppcg.compiles", "gpusim.l2_sectors"} {
			if s.Counters[name] <= 0 {
				t.Errorf("counter %s = %d, want > 0", name, s.Counters[name])
			}
		}
		if s.Counters["smt.prune.violated"]+s.Counters["smt.prune.interval"]+s.Counters["smt.propagation.tightenings"] == 0 {
			t.Error("solver recorded no prune/propagation activity")
		}
	})
}

func TestSelectBestSurfacesFailureCounts(t *testing.T) {
	// Plain gemm: all three splits feasible, nothing skipped, and the
	// SolveTime aggregation the Best doc promises must be populated.
	prog := stage(t, eatss.MustKernel("gemm"), nil)
	best, err := prog.SelectBestEval(context.Background(), eatss.GA100(), eatss.FP64, eatss.EvalSimulate)
	if err != nil {
		t.Fatal(err)
	}
	if best.SolveTime <= 0 {
		t.Fatalf("Best.SolveTime = %v, want > 0", best.SolveTime)
	}
	var sum int64
	for _, c := range best.Candidates {
		sum += int64(c.Selection.SolveTime)
	}
	if int64(best.SolveTime) < sum {
		t.Fatalf("Best.SolveTime %v < sum of candidate times %v", best.SolveTime, sum)
	}
	if best.InfeasibleSplits != 0 || best.Skipped != 0 {
		t.Fatalf("gemm protocol reported failures: %d infeasible, %d skipped",
			best.InfeasibleSplits, best.Skipped)
	}
	if got := len(best.Candidates); got != len(eatss.SharedSplits) {
		t.Fatalf("candidates = %d, want %d", got, len(eatss.SharedSplits))
	}
}
