package verify_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/verify"
)

// TestDerivationsAgree cross-checks the two derivations of the Sec. IV
// system — internal/feas's Region (which the solver lowers) and the
// certifier's math/big bounds — on every catalog kernel, GPU preset and
// precision, under the nine SelectBest sibling configurations and the
// sweep configuration. Per configuration the tile domains must agree,
// the (nest, label, cap) multisets must be equal, and every
// predicate's left-hand side must agree at the domain's minimum corner
// and at the tiles the solver selects.
func TestDerivationsAgree(t *testing.T) {
	ctx := context.Background()
	checked := 0
	for _, name := range affine.Catalog() {
		k := affine.MustLookup(name)
		prog := analysis.Analyze(k, nil)
		for _, g := range []*arch.GPU{arch.GA100(), arch.Xavier(), arch.V100()} {
			for _, prec := range []affine.Precision{affine.FP32, affine.FP64} {
				var selected []map[string]int64
				for _, split := range core.SharedSplits {
					for _, wf := range core.WarpFractions {
						cfg := feas.ModelConfig(split, wf, prec)
						var points []map[string]int64
						sel, err := core.SelectTilesAnalyzed(ctx, prog, g, core.Options{
							SplitFactor: split, WarpFraction: wf, Precision: prec, ProblemSizeAware: true,
						})
						if err == nil {
							points = append(points, sel.Tiles)
							selected = append(selected, sel.Tiles)
						}
						crossCheck(t, fmt.Sprintf("%s/%s/%s/%.2f/%.3f", name, g.Name, prec, split, wf),
							prog, g, cfg, points)
						checked++
					}
				}
				crossCheck(t, fmt.Sprintf("%s/%s/%s/sweep", name, g.Name, prec),
					prog, g, feas.SweepConfig(prec), selected)
				checked++
			}
		}
	}
	if want := len(affine.Catalog()) * 3 * 2 * 10; checked != want {
		t.Fatalf("checked %d configurations, want %d", checked, want)
	}
}

// crossCheck compares feas.Derive with the certifier's derivation for
// one configuration, evaluating the left-hand sides at the domain
// minimum corner and at each of points.
func crossCheck(t *testing.T, what string, prog *analysis.Program, g *arch.GPU, cfg feas.Config, points []map[string]int64) {
	t.Helper()
	r := feas.Derive(prog, g, cfg)
	facts := verify.SelectionFacts{
		Kernel: prog.Kernel, Params: prog.Params, GPU: g,
		SplitFactor: cfg.SplitFactor, WarpFraction: cfg.WarpFraction, Precision: cfg.Precision,
		ProblemSizeAware: cfg.ProblemSizeAware,
	}

	upper := verify.UpperBounds(facts)
	if len(upper) != len(r.Bounds) {
		t.Errorf("%s: feas has %d tile domains, verify %d", what, len(r.Bounds), len(upper))
	}
	corner := make(map[string]int64, len(r.Bounds))
	for _, b := range r.Bounds {
		corner[b.Name] = b.Iv.Lo
		if hi, ok := upper[b.Name]; !ok || b.Iv.Hi != hi/b.Step*b.Step {
			t.Errorf("%s: T_%s domain top %d, verify's bound %d (step %d)", what, b.Name, b.Iv.Hi, hi, b.Step)
		}
	}

	// The sweep family is the option-free subset: verify always derives
	// the capacity bounds, feas only when the Config asks for them.
	vbounds, _ := verify.Bounds(facts)
	byKey := make(map[string]verify.Bound)
	var vkeys, fkeys []string
	for _, b := range vbounds {
		if !cfg.Capacity && b.Label != "register" {
			continue
		}
		key := fmt.Sprintf("%s|%s|%d", b.Nest, b.Label, b.Cap)
		vkeys = append(vkeys, key)
		byKey[key] = b
	}
	for _, p := range r.Preds {
		fkeys = append(fkeys, fmt.Sprintf("%s|%s|%d", p.Nest, p.Label, p.Cap))
	}
	sort.Strings(vkeys)
	sort.Strings(fkeys)
	if fmt.Sprint(vkeys) != fmt.Sprint(fkeys) {
		t.Errorf("%s: (nest, label, cap) multisets differ:\n  feas   %v\n  verify %v", what, fkeys, vkeys)
		return
	}

	for i := range r.Preds {
		p := &r.Preds[i]
		vb := byKey[fmt.Sprintf("%s|%s|%d", p.Nest, p.Label, p.Cap)]
		for _, pt := range append([]map[string]int64{corner}, points...) {
			got, ok := p.Eval(pt)
			want, missing := vb.LHS(pt)
			if !ok || missing != "" {
				t.Errorf("%s: %s/%s reads a tile the point leaves unset", what, p.Nest, p.Label)
				continue
			}
			if !want.IsInt64() || want.Int64() != got {
				t.Errorf("%s: %s/%s at %v: feas LHS %d, verify %s", what, p.Nest, p.Label, pt, got, want)
			}
		}
	}
}
