package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/parser"
	"repro/internal/smt"
	"repro/internal/verify"
)

// selectBestSiblings are the nine (split, warp fraction) formulations
// the SelectBest protocol may solve per kernel: its three shared-memory
// splits times its three warp fractions.
var selectBestSiblings = func() []Options {
	var out []Options
	for _, split := range []float64{0.0, 0.5, 0.67} {
		for _, wf := range []float64{0.5, 0.25, 0.125} {
			out = append(out, Options{SplitFactor: split, WarpFraction: wf, Precision: affine.FP64, ProblemSizeAware: true})
		}
	}
	return out
}()

// TestCatalogFormulationsAreOneComponent pins the claim that the
// component split never touches the paper's kernels: every catalog
// kernel's formulation (and every shipped DSL kernel's), on every
// reference GPU and for every SelectBest sibling, is a single connected
// component, so its solve, its Sec. V-G solver-call counts and its
// search telemetry are those of one search.
func TestCatalogFormulationsAreOneComponent(t *testing.T) {
	kernels := make(map[string]*affine.Kernel)
	for _, name := range affine.Catalog() {
		kernels[name] = affine.MustLookup(name)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "kernels", "*.kdsl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped DSL kernels found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if kernels[file], err = parser.Parse(string(src)); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	for name, k := range kernels {
		prog := analysis.Analyze(k, nil)
		for _, g := range []*arch.GPU{arch.GA100(), arch.Xavier(), arch.V100()} {
			for _, opts := range selectBestSiblings {
				f, err := formulate(prog, g, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, g.Name, err)
				}
				parts := f.p.Partition(f.objectives()...)
				if len(parts) != 1 || parts[0].Problem != f.p || parts[0].Vars != nil {
					t.Errorf("%s on %s (split %.2f, wf %.3f): %d components, want the whole problem as one",
						name, g.Name, opts.SplitFactor, opts.WarpFraction, len(parts))
				}
			}
		}
	}
}

// separableSource writes a DSL kernel of independent nests sharing no
// loop: "copy" nests C[i][j] = A[i][j] and "mm" nests
// C[i][j] += A[i][k] * B[k][j], so the formulation splits into one
// variable group per nest.
func separableSource(size int, shapes ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel sep {\n  param N = %d\n  array ", size)
	var arrays []string
	for n := range shapes {
		arrays = append(arrays, fmt.Sprintf("A%[1]d[N][N], B%[1]d[N][N], C%[1]d[N][N]", n))
	}
	b.WriteString(strings.Join(arrays, ", ") + "\n")
	for n, shape := range shapes {
		switch shape {
		case "copy":
			fmt.Fprintf(&b, "  nest n%[1]d {\n    for i%[1]d in 0..N\n    for j%[1]d in 0..N {\n      S%[1]d: C%[1]d[i%[1]d][j%[1]d] = A%[1]d[i%[1]d][j%[1]d]\n    }\n  }\n", n)
		case "mm":
			fmt.Fprintf(&b, "  nest n%[1]d {\n    for i%[1]d in 0..N\n    for j%[1]d in 0..N\n    for k%[1]d in 0..N {\n      S%[1]d: C%[1]d[i%[1]d][j%[1]d] += A%[1]d[i%[1]d][k%[1]d] * B%[1]d[k%[1]d][j%[1]d]\n    }\n  }\n", n)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// wholeProblemSelect is the reference the component split must
// reproduce: one Maximize over the whole formulation, then the shrink
// Maximize under obj == best.
func wholeProblemSelect(f *formulation) (map[string]int64, int64, bool) {
	model, best, ok := smt.NewSolver(f.p).Maximize(f.obj)
	if !ok {
		return nil, 0, false
	}
	if objs := f.objectives(); len(objs) > 1 {
		pinned := f.p.Clone()
		pinned.RequireEQ(f.obj, smt.C(best))
		if m, _, ok := smt.NewSolver(pinned).Maximize(objs[1]); ok {
			model = m
		}
	}
	tiles := make(map[string]int64)
	for _, name := range f.names {
		tiles[name] = model.Value(f.vars[name])
	}
	return tiles, best, true
}

// TestSeparableMatchesWholeProblemSearch is the tie-break parity gate of
// the component split: on separable kernels mixing 2-D copy nests and
// 3-D matmul nests, across GPUs and formulation options, the
// per-component solve selects exactly the tiles and objective of one
// search over the whole formulation, and its witness certifies.
func TestSeparableMatchesWholeProblemSearch(t *testing.T) {
	// The whole-problem search is exponential in the number of nests, so
	// the three-nest kernel is compared at the coarsest warp fraction
	// only (finer ones take seconds to a minute per case).
	kernels := []struct {
		shapes []string
		maxWF  int // compare selectBestSiblings whose warp-fraction index is below this
	}{
		{[]string{"copy", "copy"}, 2},
		{[]string{"copy", "mm"}, 2},
		{[]string{"mm", "copy"}, 2},
		{[]string{"copy", "copy", "copy"}, 1},
	}
	gpus := []*arch.GPU{arch.GA100(), arch.Xavier(), arch.V100()}
	if testing.Short() {
		gpus = gpus[:1]
	}
	compared := 0
	for _, kc := range kernels {
		shapes := kc.shapes
		k, err := parser.Parse(separableSource(128, shapes...))
		if err != nil {
			t.Fatal(err)
		}
		prog := analysis.Analyze(k, nil)
		for _, g := range gpus {
			for i, o := range selectBestSiblings {
				if i%3 >= kc.maxWF {
					continue
				}
				name := fmt.Sprintf("%v on %s (split %.2f, wf %.3f)", shapes, g.Name, o.SplitFactor, o.WarpFraction)
				f, err := formulate(prog, g, o)
				if err != nil {
					t.Fatal(err)
				}
				wantTiles, wantObj, wantOK := wholeProblemSelect(f)
				sel, err := SelectTilesAnalyzed(context.Background(), prog, g, o)
				if (err == nil) != wantOK {
					t.Fatalf("%s: split solve err=%v, whole-problem sat=%v", name, err, wantOK)
				}
				if err != nil {
					continue
				}
				// Certify the merged witness.
				if err := verify.CertifySelection(verify.SelectionFacts{
					Kernel: k, Params: prog.Params, GPU: g,
					Tiles: sel.Tiles, Witness: sel.Witness,
					SplitFactor: o.SplitFactor, WarpFraction: o.WarpFraction,
					Precision: o.Precision, ProblemSizeAware: o.ProblemSizeAware,
				}); err != nil {
					t.Errorf("%s: merged selection failed certification: %v", name, err)
				}
				if parts := f.p.Partition(f.objectives()...); len(parts) != len(shapes) {
					t.Errorf("%s: %d components, want %d", name, len(parts), len(shapes))
				}
				if sel.Objective != wantObj || fmt.Sprint(sel.Tiles) != fmt.Sprint(wantTiles) {
					t.Errorf("%s: split solve obj=%d tiles=%v, whole problem obj=%d tiles=%v",
						name, sel.Objective, sel.Tiles, wantObj, wantTiles)
				}
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no satisfiable separable case compared")
	}
}
