package feas_test

import (
	"context"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/feas"
)

// This file is an external test: internal/core lowers feas regions, so
// only a feas_test package may call back into the solver.

// An Empty region certificate must imply the mirrored solver call
// returns UNSAT — the sibling-skip and lint passes rely on exactly this
// implication, on every catalog kernel and every (split, warp-fraction)
// sibling.
func TestEmptyRegionImpliesSolverUnsat(t *testing.T) {
	ctx := context.Background()
	emptied := 0
	for _, name := range affine.Catalog() {
		k := affine.MustLookup(name)
		prog := analysis.Analyze(k, nil)
		for _, g := range []*arch.GPU{arch.GA100(), arch.Xavier()} {
			for _, split := range core.SharedSplits {
				for _, wf := range core.WarpFractions {
					r := feas.Derive(prog, g, feas.ModelConfig(split, wf, affine.FP64))
					if r.Empty == nil {
						continue
					}
					emptied++
					_, err := core.SelectTilesAnalyzed(ctx, prog, g, core.Options{
						SplitFactor: split, WarpFraction: wf,
						Precision: affine.FP64, ProblemSizeAware: true,
					})
					if err == nil {
						t.Errorf("%s on %s (split %.2f, wf %.3f): region certified empty (%s) but the solver found a selection",
							name, g.Name, split, wf, r.Empty)
					}
				}
			}
		}
	}
	// The implication must actually be exercised: the catalog is known
	// to contain statically-empty siblings (heat-3d, syr2k, ...).
	if emptied == 0 {
		t.Fatalf("no empty region found across the catalog — the region check is vacuous")
	}
}
