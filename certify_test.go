package eatss

import (
	"context"
	"errors"
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
// on both the GA100 and the Xavier, must pass independent certification
// — solved with Options.Verify=All (a certification failure surfaces as
// a solve error) and re-checked post-hoc via Certify. Kernels whose
// formulation is infeasible at every warp fraction are skipped, like
// the protocol does (Sec. V-D).
func TestCertifyAllSelections(t *testing.T) {
	kernels := make(map[string]*AffineKernel)
	for _, name := range Kernels() {
		kernels[name] = MustKernel(name)
	}
	for name, k := range testdataKernels(t) {
		kernels[name] = k
	}
	gpus := []*GPU{GA100(), Xavier()}
	certified := 0
	for name, k := range kernels {
		prog, err := Analyze(k, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, g := range gpus {
			var sel *Selection
			for _, wf := range WarpFractions {
				sel, err = prog.SelectTiles(g, Options{
					SplitFactor:      0.5,
					WarpFraction:     wf,
					Precision:        FP64,
					ProblemSizeAware: true,
					Verify:           VerifyAll,
				})
				if err == nil {
					break
				}
			}
			if err != nil {
				t.Logf("%s on %s: infeasible at every warp fraction (%v)", name, g.Name, err)
				continue
			}
			if err := Certify(k, g, sel); err != nil {
				t.Errorf("%s on %s: post-hoc certification failed: %v", name, g.Name, err)
				continue
			}
			certified++
			// The compiled mapping must certify too.
			if _, err := prog.CompileCtx(context.Background(), g, sel.Tiles, RunConfig{
				UseShared: true, Precision: FP64, Verify: VerifyAll,
			}); err != nil {
				t.Errorf("%s on %s: compile under Verify=All failed: %v", name, g.Name, err)
			}
		}
	}
	if certified < 20 {
		t.Fatalf("only %d selections certified; expected the bulk of the catalog x 2 GPUs", certified)
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

// TestVerifyModeInCoreErrors pins that a selection failing certification
// inside the solve path (Options.Verify) is reported as a hard error
// wrapping the Violation. A correct pipeline never trips this, so the
// test drives the path indirectly: certify-all over a normal solve must
// succeed, and the sample mode must be a strict subset of all.
func TestVerifyModeInCoreErrors(t *testing.T) {
	k := MustKernel("atax")
	g := Xavier()
	opts := DefaultOptions()
	opts.WarpFraction = 0.25
	opts.Verify = VerifyAll
	if _, err := SelectTiles(k, g, opts); err != nil {
		t.Fatalf("certify-all solve failed: %v", err)
	}
	if VerifySample.ShouldVerify("key") && !VerifyAll.ShouldVerify("key") {
		t.Fatal("sample must be a subset of all")
	}
}
