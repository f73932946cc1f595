package feas

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
)

func gemmRegion(t *testing.T, cfg Config) (*Region, *analysis.Program, *arch.GPU) {
	t.Helper()
	k := affine.MustLookup("gemm")
	prog := analysis.Analyze(k, nil)
	g := arch.GA100()
	return Derive(prog, g, cfg), prog, g
}

// The sweep region must mirror the model generator's declarations: one
// domain per loop (step 1, bounded by min(T_P_B, N)) and exactly the
// register predicate per nest — no alignment, no capacity, no block
// limit, because those are choices of one solve's Options.
func TestDeriveSweepConfigMirrorsModel(t *testing.T) {
	r, prog, g := gemmRegion(t, SweepConfig(affine.FP64))
	if r.Empty != nil {
		t.Fatalf("gemm sweep region unexpectedly empty: %s", r.Empty)
	}
	if len(r.Bounds) != 3 {
		t.Fatalf("gemm has 3 loops, got %d bounds: %+v", len(r.Bounds), r.Bounds)
	}
	for _, b := range r.Bounds {
		if b.Step != 1 || b.Iv.Lo != 1 {
			t.Errorf("sweep domain of %s must start at 1 step 1, got %+v", b.Name, b)
		}
		if b.Iv.Hi != g.ThreadsPerBlock {
			t.Errorf("bound of %s: got Hi=%d, want T_P_B=%d (extents 4000 don't bind)", b.Name, b.Iv.Hi, g.ThreadsPerBlock)
		}
	}
	if len(r.Preds) != 1 {
		t.Fatalf("want exactly the register predicate, got %+v", r.Preds)
	}
	p := r.Preds[0]
	if p.Label != "register" || p.Nest != "matmul" || p.Cap != g.RegsPerSM {
		t.Fatalf("register predicate mismatch: %+v", p)
	}
	wantCoeff := prog.Nests[0].Reuse.DistinctLineRefs * affine.FP64.Factor()
	if len(p.Terms) != 1 || p.Terms[0].Coeff != wantCoeff {
		t.Fatalf("register coefficient: got %+v, want DistinctLineRefs*Factor = %d", p.Terms, wantCoeff)
	}
}

// A register-violating point must yield a point certificate that the
// solver confirms UNSAT; a known-feasible point must pass.
func TestCheckRegisterViolation(t *testing.T) {
	r, _, _ := gemmRegion(t, SweepConfig(affine.FP64))
	bad := map[string]int64{"i": 512, "j": 512, "k": 4}
	cert := r.Check(bad)
	if cert == nil {
		t.Fatalf("512x512 block (REG_SM >> 65536) not pruned")
	}
	if cert.Constraint != "register" || cert.Region {
		t.Fatalf("want point register certificate, got %+v", cert)
	}
	if cert.LHS <= cert.Cap {
		t.Fatalf("certificate does not witness a violation: %+v", cert)
	}
	if !r.UnsatSMT(bad) {
		t.Fatalf("solver finds the pruned point %v satisfiable", bad)
	}
	good := map[string]int64{"i": 32, "j": 32, "k": 16}
	if c := r.Check(good); c != nil {
		t.Fatalf("feasible point pruned: %s", c)
	}
	if !r.Feasible(good) || r.Feasible(bad) {
		t.Fatalf("Feasible disagrees with Check")
	}
}

// Domain and alignment certificates under a model configuration
// (warp-aligned step 16 on GA100).
func TestCheckDomainAndAlignment(t *testing.T) {
	r, _, _ := gemmRegion(t, ModelConfig(0.5, 0.5, affine.FP64))
	if got := r.Bounds[0].Step; got != 16 {
		t.Fatalf("warp fraction 0.5 on GA100 must step 16, got %d", got)
	}
	if c := r.Check(map[string]int64{"i": 24, "j": 16, "k": 16}); c == nil || c.Constraint != "tile-alignment" || c.Loop != "i" {
		t.Fatalf("misaligned tile: got %+v, want tile-alignment on i", c)
	}
	if c := r.Check(map[string]int64{"i": 2048, "j": 16, "k": 16}); c == nil || c.Constraint != "tile-domain" || c.Loop != "i" {
		t.Fatalf("out-of-domain tile: got %+v, want tile-domain on i", c)
	}
	if c := r.Check(map[string]int64{"i": 0, "j": 16, "k": 16}); c == nil || c.Constraint != "tile-domain" {
		t.Fatalf("non-positive tile: got %+v, want tile-domain", c)
	}
	// A point that doesn't bind every dimension is judged only on what
	// it binds.
	if c := r.Check(map[string]int64{"i": 32}); c != nil {
		t.Fatalf("partially bound feasible point pruned: %s", c)
	}
}

// Saturating arithmetic must clamp instead of wrapping: a wrapped
// product could fall back under a cap and unsoundly admit a point.
func TestSaturatingArithmetic(t *testing.T) {
	if got := satMul(satCeil, 2); got != satCeil {
		t.Fatalf("satMul overflow: got %d", got)
	}
	if got := satAdd(satCeil, satCeil); got != satCeil {
		t.Fatalf("satAdd overflow: got %d", got)
	}
	if got := satMul(3, 4); got != 12 {
		t.Fatalf("satMul small: got %d", got)
	}
	p := Predicate{Terms: []Term{{Coeff: 1, Iters: []string{"a", "b", "c"}}}, Cap: 1 << 40}
	lhs, ok := p.Eval(map[string]int64{"a": 1 << 30, "b": 1 << 30, "c": 1 << 30})
	if !ok || lhs != satCeil {
		t.Fatalf("Eval must saturate, got %d ok=%t", lhs, ok)
	}
	if _, ok := p.Eval(map[string]int64{"a": 1}); ok {
		t.Fatalf("Eval with unbound variables must report ok=false")
	}
}
