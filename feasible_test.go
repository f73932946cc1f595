package eatss_test

// Soundness gate for the static tile-space feasibility analysis: the
// pruned sweep must be exactly the full sweep filtered through the same
// region predicate — same surviving points, same results bit for bit,
// same argmax — every certificate must survive independent replay, and
// the paper's gemm 15^3 space must prune at least 30% of its points.

import (
	"context"
	"reflect"
	"testing"

	eatss "repro"
)

// minPruneRate is the fraction of gemm's 15^3 space on GA100 the
// pre-filter must remove (the register bound alone removes ~39%), so it
// keeps paying for itself.
const minPruneRate = 0.30

// TestSweepPruneParity is the pre-filter's soundness gate over the
// paper's gemm 15^3 space on GA100.
func TestSweepPruneParity(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	space := eatss.PaperSpace(k)
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	ctx := context.Background()

	full, fullStats := eatss.ExploreSpaceOpt(ctx, k, g, space, cfg, eatss.SweepOptions{Cache: eatss.NewEvalCache()})
	pruned, prunedStats := eatss.ExploreSpaceOpt(ctx, k, g, space, cfg,
		eatss.SweepOptions{Prune: true, Cache: eatss.NewEvalCache()})

	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	region := prog.FeasibleRegion(g, cfg)

	if fullStats.Pruned != 0 {
		t.Fatalf("un-requested pruning: %d points pruned without SweepOptions.Prune", fullStats.Pruned)
	}
	if rate := float64(prunedStats.Pruned) / float64(len(space)); rate < minPruneRate {
		t.Fatalf("pruned %d of %d points (%.1f%%), under the %.0f%% floor",
			prunedStats.Pruned, len(space), 100*rate, 100*minPruneRate)
	}
	if got := prunedStats.Pruned + prunedStats.Evaluated + prunedStats.Skipped; got != len(space) {
		t.Fatalf("stats don't cover the space: pruned %d + evaluated %d + skipped %d != %d",
			prunedStats.Pruned, prunedStats.Evaluated, prunedStats.Skipped, len(space))
	}

	// The pruned sweep must equal the full sweep filtered by the region.
	var want []eatss.SpacePoint
	for _, p := range full {
		if region.Check(p.Tiles) == nil {
			want = append(want, p)
		}
	}
	if len(pruned) != len(want) {
		t.Fatalf("pruned sweep kept %d points, region-filtered full sweep keeps %d", len(pruned), len(want))
	}
	bestP, bestW := -1, -1
	for i := range want {
		if !reflect.DeepEqual(pruned[i].Tiles, want[i].Tiles) || !reflect.DeepEqual(pruned[i].Result, want[i].Result) {
			t.Fatalf("surviving point %d diverges: %v vs %v", i, pruned[i].Tiles, want[i].Tiles)
		}
		if bestP < 0 || pruned[i].Result.PPW > pruned[bestP].Result.PPW {
			bestP = i
		}
		if bestW < 0 || want[i].Result.PPW > want[bestW].Result.PPW {
			bestW = i
		}
	}
	if bestP != bestW {
		t.Fatalf("argmax-PPW diverges: pruned %v vs filtered %v", pruned[bestP].Tiles, want[bestW].Tiles)
	}

	// Every pruned point carries a certificate that replays under the
	// independent math/big certifier; every 8th re-decides UNSAT under
	// the SMT solver.
	pcfg := eatss.SweepPruneConfig(eatss.FP64)
	checked := 0
	for _, tiles := range space {
		cert := region.Check(tiles)
		if cert == nil {
			continue
		}
		if err := eatss.CertifyPrune(k, k.Params, g, pcfg, cert); err != nil {
			t.Fatalf("certificate for %v failed independent replay: %v", tiles, err)
		}
		if checked%8 == 0 && !region.UnsatSMT(tiles) {
			t.Fatalf("solver finds pruned point %v satisfiable (claimed %s)", tiles, cert.Constraint)
		}
		checked++
	}
	if checked != prunedStats.Pruned {
		t.Fatalf("region prunes %d points but the sweep pruned %d", checked, prunedStats.Pruned)
	}
}

// TestCatalogPruneCertificatesReplay replays every prune certificate of
// a reduced space ({8,32,128}^d) of every catalog kernel on both
// reference GPUs under the independent math/big certifier.
func TestCatalogPruneCertificatesReplay(t *testing.T) {
	cfg := eatss.SweepPruneConfig(eatss.FP64)
	certified := 0
	for _, g := range []*eatss.GPU{eatss.GA100(), eatss.Xavier()} {
		for _, name := range eatss.Kernels() {
			k := eatss.MustKernel(name)
			prog, err := eatss.Analyze(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			region := prog.FeasibleRegion(g, eatss.RunConfig{Precision: eatss.FP64})
			for _, tiles := range eatss.Space(k, []int64{8, 32, 128}) {
				cert := region.Check(tiles)
				if cert == nil {
					continue
				}
				if err := eatss.CertifyPrune(k, k.Params, g, cfg, cert); err != nil {
					t.Fatalf("%s on %s: certificate for %v failed independent replay: %v", name, g.Name, tiles, err)
				}
				certified++
			}
		}
	}
	if certified == 0 {
		t.Fatal("no catalog point pruned: the replay is vacuous")
	}
}

// The solver's own selections must always survive the sweep pre-filter:
// the region only encodes constraints every core.Options enforces, so a
// prune of a solver-returned tile choice would be unsound by
// construction (and would make the service 422 its own solve results).
func TestSolverSelectionsNeverPruned(t *testing.T) {
	for _, g := range []*eatss.GPU{eatss.GA100(), eatss.Xavier()} {
		for _, name := range eatss.Kernels() {
			prog := stage(t, eatss.MustKernel(name), nil)
			best, err := prog.SelectBestEval(context.Background(), g, eatss.FP64, eatss.EvalSimulate)
			if err != nil {
				continue // nothing selected, nothing to protect
			}
			region := prog.FeasibleRegion(g, eatss.RunConfig{Precision: eatss.FP64})
			for _, c := range best.Candidates {
				if cert := region.Check(c.Selection.Tiles); cert != nil {
					t.Errorf("%s on %s: solver selection %v (split %.2f) pruned: %s",
						name, g.Name, c.Selection.Tiles, c.SharedFrac, cert)
				}
			}
		}
	}
}

// FeasibleRegion is memoized on the Program artifact, so a service
// caching Programs per fingerprint derives each region once.
func TestFeasibleRegionMemoized(t *testing.T) {
	prog, err := eatss.Analyze(eatss.MustKernel("gemm"), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := eatss.GA100()
	cfg := eatss.RunConfig{Precision: eatss.FP64}
	a := prog.FeasibleRegion(g, cfg)
	b := prog.FeasibleRegion(g, cfg)
	if a != b {
		t.Fatalf("FeasibleRegion re-derived for identical (GPU, config)")
	}
	if a.Empty != nil {
		t.Fatalf("gemm region unexpectedly empty: %s", a.Empty)
	}
}
