package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/parser"
)

// parityKernels returns the kernels the search-parity golden covers, in
// a fixed order: the catalog, the shipped DSL kernels, and separable
// "wide" kernels of n ∈ {2, 3} independent copy nests at N ∈ {128, 512}.
func parityKernels(t *testing.T) ([]string, []*affine.Kernel) {
	t.Helper()
	var names []string
	var kernels []*affine.Kernel
	for _, name := range affine.Catalog() {
		names = append(names, name)
		kernels = append(kernels, affine.MustLookup(name))
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "kernels", "*.kdsl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped DSL kernels found: %v", err)
	}
	sort.Strings(files)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		k, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		names = append(names, filepath.Base(file))
		kernels = append(kernels, k)
	}
	for _, n := range []int{2, 3} {
		for _, size := range []int{128, 512} {
			shapes := make([]string, n)
			for i := range shapes {
				shapes[i] = "copy"
			}
			k, err := parser.Parse(separableSource(size, shapes...))
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, fmt.Sprintf("wide-n%d-N%d", n, size))
			kernels = append(kernels, k)
		}
	}
	return names, kernels
}

// searchLine renders one selection's outcome and its complete search
// telemetry (everything in smt.Stats but wall-clock time) as one line.
func searchLine(sel *Selection) string {
	var b strings.Builder
	var tiles []string
	for name, v := range sel.Tiles {
		tiles = append(tiles, fmt.Sprintf("%s:%d", name, v))
	}
	sort.Strings(tiles)
	st := sel.Search
	fmt.Fprintf(&b, "tiles=%s obj=%d calls=%d nodes=%d viol=%d intv=%d tight=%d rounds=%d",
		strings.Join(tiles, ","), sel.Objective, sel.SolverCalls, st.Nodes,
		st.PruneViolated, st.PruneInterval, st.Tightenings, st.Rounds)
	var prunes []string
	for label, n := range st.PruneByConstraint {
		prunes = append(prunes, fmt.Sprintf("%s:%d", label, n))
	}
	sort.Strings(prunes)
	fmt.Fprintf(&b, " prune=%s depth=%s inc=%d",
		strings.Join(prunes, ","), strings.Trim(fmt.Sprint(st.DepthNodes), "[]"), len(st.Incumbents))
	return b.String()
}

// TestSearchParityGolden pins the Sec. IV-L search itself, not just its
// answers: for every catalog kernel, shipped DSL kernel and wide
// separable kernel × GA100/Xavier/V100 × the three shared splits × the
// three warp fractions × FP32/FP64, the selected tiles, the objective,
// the solver-call count and every search counter (nodes, violated and
// interval prunes, propagation tightenings, rounds, per-constraint
// prunes, the depth histogram, the incumbent count). Any change to the
// search order, the pruning or the propagation moves some line.
func TestSearchParityGolden(t *testing.T) {
	names, kernels := parityKernels(t)
	var out strings.Builder
	for i, k := range kernels {
		prog := analysis.Analyze(k, nil)
		for _, g := range []*arch.GPU{arch.GA100(), arch.Xavier(), arch.V100()} {
			for _, prec := range []affine.Precision{affine.FP32, affine.FP64} {
				for _, split := range []float64{0.0, 0.5, 0.67} {
					for _, wf := range []float64{0.5, 0.25, 0.125} {
						opts := Options{SplitFactor: split, WarpFraction: wf, Precision: prec, ProblemSizeAware: true}
						fmt.Fprintf(&out, "%s %s %s split=%.2f wf=%.3f ", names[i], g.Name, prec, split, wf)
						sel, err := SelectTilesAnalyzed(context.Background(), prog, g, opts)
						if err != nil {
							out.WriteString("unsat\n")
							continue
						}
						out.WriteString(searchLine(sel) + "\n")
					}
				}
			}
		}
	}
	got := out.String()

	path := filepath.Join("testdata", "search_parity.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run SearchParity -update` to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("search drifted from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("search golden has %d lines, got %d", len(wl), len(gl))
}
