package verify

import (
	"errors"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/deps"
	"repro/internal/smt"
)

func gemm() *affine.Kernel {
	return affine.NewBuilder("gemm", map[string]int64{"NI": 4000, "NJ": 4000, "NK": 4000}).
		Array("C", "NI", "NJ").
		Array("A", "NI", "NK").
		Array("B", "NK", "NJ").
		Nest("matmul").
		Loop("i", "NI").Loop("j", "NJ").Loop("k", "NK").
		Stmt("S0", 2).Write("C", "i", "j").Read("C", "i", "j").
		Read("A", "i", "k").Read("B", "k", "j").Reduction().End().
		End().
		Build()
}

// paperFacts reproduces the paper's GA100 matmul walkthrough selection
// (Ti=16, Tj=384, Tk=16 under 50% split, half-warp alignment, FP64),
// which must certify.
func paperFacts() SelectionFacts {
	return SelectionFacts{
		Kernel:           gemm(),
		GPU:              arch.GA100(),
		Tiles:            map[string]int64{"i": 16, "j": 384, "k": 16},
		SplitFactor:      0.5,
		WarpFraction:     0.5,
		Precision:        affine.FP64,
		ProblemSizeAware: true,
	}
}

func TestCertifySelectionPaperWalkthrough(t *testing.T) {
	if err := CertifySelection(paperFacts()); err != nil {
		t.Fatalf("paper walkthrough failed certification: %v", err)
	}
}

func wantViolation(t *testing.T, err error, label string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected a %q violation, got nil", label)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected *Violation, got %T: %v", err, err)
	}
	if v.Label != label {
		t.Fatalf("expected label %q, got %q (%v)", label, v.Label, v)
	}
}

func TestCertifySelectionMisalignedTile(t *testing.T) {
	f := paperFacts()
	f.Tiles["j"] = 384 + 8 // half-warp factor is 16; +8 breaks divisibility
	wantViolation(t, CertifySelection(f), "tile-alignment")
}

func TestCertifySelectionTileAboveBound(t *testing.T) {
	f := paperFacts()
	f.Tiles["j"] = 2048 // above T_P_B = 1024
	wantViolation(t, CertifySelection(f), "tile-domain")
}

func TestCertifySelectionMissingTile(t *testing.T) {
	f := paperFacts()
	delete(f.Tiles, "k")
	wantViolation(t, CertifySelection(f), "tile-domain")
}

func TestCertifySelectionCapacityBlown(t *testing.T) {
	// Inflate the serial tile: (Ti+Tk)*Tj grows past the L1 capacity
	// while alignment and the T_P_B bound stay satisfied.
	f := paperFacts()
	f.Tiles["i"] = 1024
	f.Tiles["k"] = 1024
	f.Tiles["j"] = 1024
	err := CertifySelection(f)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected a violation, got %v", err)
	}
	if v.Label != "l1-capacity" && v.Label != "register" {
		t.Fatalf("expected a capacity or register violation, got %q", v.Label)
	}
}

// witnessFacts builds a tiny solved problem by hand: one variable
// T_i in {4, 8, 16}, constraint T_i <= 8, model T_i = 8.
func witnessFacts(t *testing.T) SelectionFacts {
	t.Helper()
	k := affine.NewBuilder("wit", map[string]int64{"N": 64}).
		Array("A", "N", "N").
		Nest("n").
		Loop("i", "N").Loop("j", "N").
		Stmt("S0", 1).Write("A", "i", "j").Read("A", "i", "j").End().
		End().
		Build()
	p := smt.NewProblem()
	vi := p.IntVar("T_i", []int64{4, 8, 16})
	vj := p.IntVar("T_j", []int64{4, 8, 16})
	p.RequireLabeled("register", smt.V(vi), smt.LE, smt.C(8))
	return SelectionFacts{
		Kernel:       k,
		GPU:          arch.GA100(),
		Tiles:        map[string]int64{"i": 8, "j": 4},
		Witness:      &smt.Witness{Problem: p, Model: smt.Model{8, 4}, Vars: map[string]smt.Var{"T_i": vi, "T_j": vj}},
		WarpFraction: 0.125, // waf 4
		Precision:    affine.FP32,
	}
}

func TestWitnessReplayClean(t *testing.T) {
	if err := CertifySelection(witnessFacts(t)); err != nil {
		t.Fatalf("clean witness failed: %v", err)
	}
}

func TestWitnessFalsifiedConstraint(t *testing.T) {
	f := witnessFacts(t)
	f.Witness.Model = smt.Model{16, 4} // violates T_i <= 8
	f.Tiles["i"] = 16
	wantViolation(t, CertifySelection(f), "register")
}

func TestWitnessModelOutsideDomain(t *testing.T) {
	f := witnessFacts(t)
	f.Witness.Model = smt.Model{6, 4} // 6 not in {4,8,16}
	f.Tiles["i"] = 6
	wantViolation(t, CertifySelection(f), "domain")
}

func TestWitnessTileModelDisagreement(t *testing.T) {
	f := witnessFacts(t)
	f.Tiles["i"] = 4 // model says 8
	wantViolation(t, CertifySelection(f), "witness")
}

func TestWitnessModelLengthMismatch(t *testing.T) {
	f := witnessFacts(t)
	f.Witness.Model = smt.Model{8}
	wantViolation(t, CertifySelection(f), "witness")
}

func mapped(t *testing.T) *codegen.MappedNest {
	t.Helper()
	k := gemm()
	n := &k.Nests[0]
	m, err := codegen.MapNestReuse(n, deps.AnalyzeReuse(n), k.Params,
		map[string]int64{"i": 16, "j": 384, "k": 16}, arch.GA100(),
		codegen.Options{UseShared: true, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCertifyMappingClean(t *testing.T) {
	if err := CertifyMapping(mapped(t), arch.GA100()); err != nil {
		t.Fatalf("clean mapping failed certification: %v", err)
	}
}

func TestCertifyMappingCorruptGrid(t *testing.T) {
	m := mapped(t)
	m.GridDims[0]++
	wantViolation(t, CertifyMapping(m, arch.GA100()), "grid-dims")
}

func TestCertifyMappingCorruptThreads(t *testing.T) {
	m := mapped(t)
	m.ThreadsPerBlock *= 2
	wantViolation(t, CertifyMapping(m, arch.GA100()), "threads-per-block")
}

func TestCertifyMappingCorruptCoarsen(t *testing.T) {
	m := mapped(t)
	m.Coarsen[0] = 0
	wantViolation(t, CertifyMapping(m, arch.GA100()), "geometry")
}

func TestCertifyMappingCorruptSharedFootprint(t *testing.T) {
	m := mapped(t)
	m.SharedBytesPerBlock += 64
	wantViolation(t, CertifyMapping(m, arch.GA100()), "shared-footprint")
}

func TestCertifyMappingCorruptRegs(t *testing.T) {
	m := mapped(t)
	g := arch.GA100()
	m.RegsPerThread = g.RegsPerThread + 1
	wantViolation(t, CertifyMapping(m, g), "registers")
}

func TestCertifyMappingCorruptLaunches(t *testing.T) {
	m := mapped(t)
	m.Launches = 0
	wantViolation(t, CertifyMapping(m, arch.GA100()), "launches")
}
