package eatss_test

// Staged-compilation parity tests: a Program shared across many
// evaluations must be byte-identical to a fresh analysis per call, and a
// Program whose memo tables are warm must answer like a cold one. Any
// divergence means the staging split moved something tile- or
// options-dependent into the artifact.

import (
	"context"
	"reflect"
	"testing"

	eatss "repro"

	"repro/internal/obs"
)

// TestProgramExploreSpaceParityGemmPaperSpace sweeps gemm's full
// 15^3-point paper space twice — once through the one-shot package-level
// helper, once through a shared Program — with memoization off, and
// requires byte-identical points and stats. It then re-evaluates every
// point through a fresh Program per point, the pre-staged pipeline.
func TestProgramExploreSpaceParityGemmPaperSpace(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	space := eatss.PaperSpace(k)

	legacyPts, legacyStats := eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Cache: eatss.NoCache})

	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	progPts, progStats := prog.ExploreSpaceOpt(context.Background(), g, space, cfg,
		eatss.SweepOptions{Cache: eatss.NoCache})

	if legacyStats != progStats {
		t.Fatalf("stats diverge: legacy %+v, program %+v", legacyStats, progStats)
	}
	if len(legacyPts) == 0 {
		t.Fatal("sweep produced no points")
	}
	if !reflect.DeepEqual(legacyPts, progPts) {
		for i := range legacyPts {
			if !reflect.DeepEqual(legacyPts[i], progPts[i]) {
				t.Fatalf("point %d diverges:\nlegacy  %+v\nprogram %+v", i, legacyPts[i], progPts[i])
			}
		}
		t.Fatal("results diverge")
	}

	// The shared artifact must also match a fresh analysis per point (the
	// pre-staged pipeline's exact behavior) at every point of the space:
	// the same points fail to compile, and the rest agree bit for bit.
	j := 0
	for _, tiles := range space {
		res, _, err := stage(t, k, nil).RunCtx(context.Background(), g, tiles, cfg)
		staged := j < len(progPts) && reflect.DeepEqual(progPts[j].Tiles, tiles)
		if (err == nil) != staged {
			t.Fatalf("tiles %v: fresh analysis ok=%t (%v), shared artifact ok=%t", tiles, err == nil, err, staged)
		}
		if !staged {
			continue
		}
		if !reflect.DeepEqual(res, progPts[j].Result) {
			t.Fatalf("tiles %v: fresh analysis %+v, shared artifact %+v", tiles, res, progPts[j].Result)
		}
		j++
	}
	if j != len(progPts) {
		t.Fatalf("shared artifact evaluated %d points, fresh analysis %d", len(progPts), j)
	}
}

// TestProgramSelectBestParityGemm runs the full three-split protocol on
// a cold Program and again on the same Program once its memo tables
// (feasibility regions, closed-form plans) are warm from a first run and
// a sweep, and requires identical candidates, accounting and choice.
// SolveTime is wall clock and is excluded.
func TestProgramSelectBestParityGemm(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	ctx := context.Background()
	prog := stage(t, k, nil)

	cold, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSimulate)
	if err != nil {
		t.Fatal(err)
	}
	prog.ExploreSpaceOpt(ctx, g, eatss.Space(k, []int64{16, 32, 64}),
		eatss.RunConfig{UseShared: true, Precision: eatss.FP64, Evaluator: eatss.EvalSymbolic},
		eatss.SweepOptions{Cache: eatss.NoCache})
	warm, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSimulate)
	if err != nil {
		t.Fatal(err)
	}

	stripTimes := func(b *eatss.Best) {
		b.SolveTime = 0
		for _, c := range b.Candidates {
			c.Selection.SolveTime = 0
			c.Selection.Search.Elapsed = 0
			for i := range c.Selection.Search.Incumbents {
				c.Selection.Search.Incumbents[i].Elapsed = 0
			}
		}
	}
	stripTimes(cold)
	stripTimes(warm)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("protocol outcomes diverge:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// TestSweepStagesAnalysisOnce asserts the staging contract the refactor
// exists for: an N-point sweep performs exactly one analysis build, and
// every evaluation consumes the precomputed per-nest analyses.
func TestSweepStagesAnalysisOnce(t *testing.T) {
	withObs(t, func() {
		k := eatss.MustKernel("gemm")
		g := eatss.GA100()
		space := eatss.Space(k, []int64{16, 32}) // 2^3 = 8 points
		pts, stats := eatss.ExploreSpaceOpt(context.Background(), k, g, space,
			eatss.RunConfig{UseShared: true, Precision: eatss.FP64},
			eatss.SweepOptions{Cache: eatss.NoCache})
		if stats.Evaluated == 0 {
			t.Fatal("sweep evaluated nothing")
		}
		s := obs.Snapshot()
		if got := s.Counters["analysis.builds"]; got != 1 {
			t.Fatalf("analysis.builds = %d for a %d-point sweep, want exactly 1", got, len(space))
		}
		if hits := s.Counters["analysis.reuse_hits"]; hits < int64(len(pts)) {
			t.Fatalf("analysis.reuse_hits = %d, want >= %d (one per evaluated point)", hits, len(pts))
		}
	})
}
