package autotune

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/ppcg"
)

func tuneGemm(t *testing.T, cfg Config) Outcome {
	t.Helper()
	k := affine.MustLookup("gemm")
	space := ppcg.Space(k, []int64{8, 16, 32, 64, 128})
	return Tune(k, arch.GA100(), space, cfg)
}

func TestTuneFindsGoodConfig(t *testing.T) {
	out := tuneGemm(t, DefaultConfig())
	if out.Best.Result.TimeSec == 0 {
		t.Fatal("no configuration evaluated")
	}
	if len(out.History) == 0 || len(out.History) > DefaultConfig().Budget {
		t.Fatalf("history = %d evaluations", len(out.History))
	}
	// The tuned result must be at least as good as the worst observation
	// and match the history maximum.
	best := out.History[0].Objective
	for _, o := range out.History {
		if o.Objective > best {
			best = o.Objective
		}
	}
	if out.Best.Objective != best {
		t.Fatalf("Best %.1f != history max %.1f", out.Best.Objective, best)
	}
}

func TestTuningCostModeled(t *testing.T) {
	out := tuneGemm(t, DefaultConfig())
	// ~40 evaluations at 25 s each: the paper's ~17 minutes.
	if out.TuningTimeSec < 10*60 || out.TuningTimeSec > 25*60 {
		t.Fatalf("tuning time %.0f s, want ~17 minutes", out.TuningTimeSec)
	}
}

func TestOpenMPPenaltyApplied(t *testing.T) {
	out := tuneGemm(t, DefaultConfig())
	// Every observation's PPW must reflect the offload penalty:
	// objective = GFLOPS after the penalty.
	for _, o := range out.History {
		if o.Objective != o.Result.GFLOPS {
			t.Fatal("objective should equal penalized GFLOPS")
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := tuneGemm(t, DefaultConfig())
	b := tuneGemm(t, DefaultConfig())
	if a.Best.Objective != b.Best.Objective || len(a.History) != len(b.History) {
		t.Fatal("tuning is not deterministic for a fixed seed")
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	c := tuneGemm(t, cfg)
	if len(c.History) == 0 {
		t.Fatal("different seed produced no evaluations")
	}
}

func TestSurrogateBeatsPureBootstrapOnAverage(t *testing.T) {
	// With the same budget, the surrogate-guided phase should find a
	// configuration at least as good as the bootstrap's best.
	out := tuneGemm(t, DefaultConfig())
	cfg := DefaultConfig()
	bootBest := 0.0
	for i, o := range out.History {
		if i >= cfg.Bootstrap {
			break
		}
		if o.Objective > bootBest {
			bootBest = o.Objective
		}
	}
	if out.Best.Objective < bootBest {
		t.Fatalf("final best %.1f below bootstrap best %.1f", out.Best.Objective, bootBest)
	}
}

func TestBudgetRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Budget = 12
	out := tuneGemm(t, cfg)
	if len(out.History) > 12 {
		t.Fatalf("evaluated %d > budget 12", len(out.History))
	}
}

func TestHybridTuneSeededByEATSS(t *testing.T) {
	k := affine.MustLookup("gemm")
	g := arch.GA100()
	space := ppcg.Space(k, []int64{8, 16, 32, 64, 128, 256})
	cfg := DefaultConfig()
	cfg.Budget = 16

	hybrid := HybridTune(k, g, space, cfg)
	if hybrid.Best.Result.TimeSec == 0 {
		t.Fatal("hybrid found nothing")
	}
	// The seeds alone cost no compile-run budget; total tuning time must
	// stay well under the cold tuner's.
	cold := Tune(k, g, space, cfg)
	if hybrid.TuningTimeSec >= cold.TuningTimeSec {
		t.Fatalf("hybrid tuning time %.0fs should undercut cold %.0fs",
			hybrid.TuningTimeSec, cold.TuningTimeSec)
	}
	// And with the same budget it must reach at least comparable quality.
	if hybrid.Best.Objective < 0.85*cold.Best.Objective {
		t.Fatalf("hybrid best %.0f far below cold best %.0f",
			hybrid.Best.Objective, cold.Best.Objective)
	}
}

func TestHybridDeterministic(t *testing.T) {
	k := affine.MustLookup("2mm")
	g := arch.GA100()
	space := ppcg.Space(k, []int64{8, 16, 32, 64})
	a := HybridTune(k, g, space, DefaultConfig())
	b := HybridTune(k, g, space, DefaultConfig())
	if a.Best.Objective != b.Best.Objective {
		t.Fatal("hybrid tuning not deterministic")
	}
}
