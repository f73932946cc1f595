package eatss

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testdataKernels loads every DSL kernel shipped under testdata/kernels.
func testdataKernels(t *testing.T) map[string]*AffineKernel {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "kernels", "*.kdsl"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*AffineKernel, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		k, err := ParseKernelNamed(string(src), f)
		if err != nil {
			t.Fatal(err)
		}
		Schedule(k)
		out[filepath.Base(f)] = k
	}
	return out
}

// TestCertifyAllSelections is the acceptance gate: every selection the
// pipeline produces for the full catalog plus the shipped DSL kernels,
// over the whole (split x warp fraction) sibling grid SelectBest and the
// linter reason about, on the GA100, the Xavier and the V100, must pass
// independent certification (Certify), and its compiled mapping must
// pass CertifyMapped. Unsatisfiable formulations are skipped, like the
// protocol does (Sec. V-D).
func TestCertifyAllSelections(t *testing.T) {
	kernels := make(map[string]*AffineKernel)
	for _, name := range Kernels() {
		kernels[name] = MustKernel(name)
	}
	for name, k := range testdataKernels(t) {
		kernels[name] = k
	}
	gpus := []*GPU{GA100(), Xavier(), V100()}
	ctx := context.Background()
	certified, unsat := 0, 0
	for name, k := range kernels {
		prog, err := Analyze(k, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, g := range gpus {
			for _, split := range SharedSplits {
				for _, wf := range WarpFractions {
					at := fmt.Sprintf("%s on %s (split %.2f, wf %.3f)", name, g.Name, split, wf)
					sel, err := prog.SelectTiles(g, Options{
						SplitFactor:      split,
						WarpFraction:     wf,
						Precision:        FP64,
						ProblemSizeAware: true,
					})
					if err != nil {
						unsat++
						continue
					}
					if err := Certify(prog.Kernel(), g, sel); err != nil {
						t.Errorf("%s: selection failed certification: %v", at, err)
						continue
					}
					mk, err := prog.CompileCtx(ctx, g, sel.Tiles, RunConfig{UseShared: split > 0, Precision: FP64})
					if err != nil {
						t.Errorf("%s: compile failed: %v", at, err)
						continue
					}
					if err := CertifyMapped(mk, g); err != nil {
						t.Errorf("%s: compiled mapping failed certification: %v", at, err)
						continue
					}
					certified++
				}
			}
		}
	}
	t.Logf("%d selections and mappings certified, %d formulations unsatisfiable", certified, unsat)
	if certified < 20*len(SharedSplits)*len(WarpFractions) {
		t.Fatalf("only %d selections certified; expected the bulk of the catalog x 3 GPUs x the sibling grid", certified)
	}
}

// TestInjectedTileBugIsCaught corrupts a certified selection's tiles and
// witness and checks the certifier rejects each corruption — the
// end-to-end "would a solver bug be caught?" drill.
func TestInjectedTileBugIsCaught(t *testing.T) {
	k := MustKernel("gemm")
	g := GA100()
	sel, err := SelectTiles(k, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Certify(k, g, sel); err != nil {
		t.Fatalf("untampered selection must certify: %v", err)
	}

	waf := sel.Opts.WarpAlignmentFactor(g)
	t.Run("perturbed-tile", func(t *testing.T) {
		bad := *sel
		bad.Tiles = map[string]int64{}
		for n, v := range sel.Tiles {
			bad.Tiles[n] = v
		}
		bad.Tiles["i"] += waf / 2 // breaks warp alignment
		err := Certify(k, g, &bad)
		var v *Violation
		if !errors.As(err, &v) {
			t.Fatalf("perturbed tile not caught: %v", err)
		}
	})

	t.Run("mutated-witness-model", func(t *testing.T) {
		if sel.Witness == nil {
			t.Fatal("selection carries no witness")
		}
		bad := *sel
		model := append([]int64(nil), sel.Witness.Model...)
		// Push one variable outside its optimum: the objective-pinning
		// equality (or a resource constraint) must be falsified.
		model[0] += waf
		w := *sel.Witness
		w.Model = model
		bad.Witness = &w
		err := Certify(k, g, &bad)
		var v *Violation
		if !errors.As(err, &v) {
			t.Fatalf("mutated model not caught: %v", err)
		}
	})
}

// TestInjectedMappingBugIsCaught corrupts a compiled mapping's geometry
// and checks CertifyMapped rejects it.
func TestInjectedMappingBugIsCaught(t *testing.T) {
	g := GA100()
	prog, err := Analyze(MustKernel("gemm"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := prog.SelectTiles(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk, err := prog.CompileCtx(context.Background(), g, sel.Tiles, RunConfig{UseShared: true, Precision: FP64})
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyMapped(mk, g); err != nil {
		t.Fatalf("untampered mapping must certify: %v", err)
	}
	mk.Nests[0].GridDims[0]++
	err = CertifyMapped(mk, g)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("corrupted grid not caught: %v", err)
	}
	if v.Label != "grid-dims" {
		t.Fatalf("expected grid-dims, got %q", v.Label)
	}
}
