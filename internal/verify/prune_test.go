package verify

import (
	"errors"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
)

func pruneFacts(t *testing.T, tiles map[string]int64) PruneFacts {
	t.Helper()
	k := affine.MustLookup("gemm")
	return PruneFacts{
		SelectionFacts: SelectionFacts{
			Kernel: k, Params: k.Params, GPU: arch.GA100(),
			Tiles: tiles, Precision: affine.FP64, ProblemSizeAware: true,
		},
	}
}

func wantFalsePrune(t *testing.T, err error, what string) {
	t.Helper()
	var v *Violation
	if !errors.As(err, &v) || v.Label != "false-prune" {
		t.Fatalf("%s: want a false-prune Violation, got %v", what, err)
	}
}

// A genuine register violation must certify (nil); claiming the same
// constraint on a feasible point must come back as a false prune.
func TestCertifyPruneRegister(t *testing.T) {
	f := pruneFacts(t, map[string]int64{"i": 512, "j": 512, "k": 4})
	f.Constraint, f.Nest = "register", "matmul"
	f.LHS, f.Cap = 6*512*512, 65536
	if err := CertifyPrune(f); err != nil {
		t.Fatalf("512x512 block exceeds RegsPerSM, replay must agree: %v", err)
	}
	f = pruneFacts(t, map[string]int64{"i": 32, "j": 32, "k": 16})
	f.Constraint, f.Nest = "register", "matmul"
	wantFalsePrune(t, CertifyPrune(f), "feasible point claimed register-infeasible")
}

// Tile-domain point claims: out-of-range certifies, in-range is a false
// prune, and an unknown loop name can never certify.
func TestCertifyPruneTileDomain(t *testing.T) {
	f := pruneFacts(t, map[string]int64{"i": 2048, "j": 16, "k": 16})
	f.Constraint, f.Loop = "tile-domain", "i"
	f.LHS, f.Cap = 2048, 1024
	if err := CertifyPrune(f); err != nil {
		t.Fatalf("T_i=2048 > T_P_B=1024, replay must agree: %v", err)
	}
	f = pruneFacts(t, map[string]int64{"i": 32, "j": 16, "k": 16})
	f.Constraint, f.Loop = "tile-domain", "i"
	wantFalsePrune(t, CertifyPrune(f), "in-domain tile claimed out of domain")
	f.Loop = "nosuch"
	wantFalsePrune(t, CertifyPrune(f), "unknown loop")
}

// Alignment claims only exist under a warp-aligned option set; the step
// is re-derived from WarpFraction, not taken from the certificate.
func TestCertifyPruneAlignment(t *testing.T) {
	f := pruneFacts(t, map[string]int64{"i": 24, "j": 16, "k": 16})
	f.Constraint, f.Loop = "tile-alignment", "i"
	f.WarpFraction = 0.5 // step 16 on GA100
	f.LHS, f.Cap = 24, 16
	if err := CertifyPrune(f); err != nil {
		t.Fatalf("24 is not a multiple of 16, replay must agree: %v", err)
	}
	f.Tiles = map[string]int64{"i": 32, "j": 16, "k": 16}
	wantFalsePrune(t, CertifyPrune(f), "aligned tile claimed misaligned")
	// WarpFraction 0 means alignment was no part of the checked family:
	// any alignment claim is then a false prune (step 1).
	f.Tiles = map[string]int64{"i": 24, "j": 16, "k": 16}
	f.WarpFraction = 0
	wantFalsePrune(t, CertifyPrune(f), "alignment claim without alignment in the options")
}

// Region claims must evaluate at the independently re-derived domain
// minimum corner; a certificate pinning any other point is rejected
// outright (the monotone whole-region argument only works at the
// corner).
func TestCertifyPruneRegionCornerMismatch(t *testing.T) {
	f := pruneFacts(t, map[string]int64{"i": 32, "j": 1, "k": 1})
	f.Constraint, f.Nest, f.Region = "register", "matmul", true
	wantFalsePrune(t, CertifyPrune(f), "region certificate at a non-corner point")
	// At the true corner (1,1,1) the register LHS is far below the cap,
	// so a whole-region claim is also a false prune.
	f.Tiles = map[string]int64{"i": 1, "j": 1, "k": 1}
	wantFalsePrune(t, CertifyPrune(f), "region claim on a non-empty region")
}

// Unknown constraint names never certify.
func TestCertifyPruneUnknownConstraint(t *testing.T) {
	f := pruneFacts(t, map[string]int64{"i": 1, "j": 1, "k": 1})
	f.Constraint = "warp-occupancy"
	wantFalsePrune(t, CertifyPrune(f), "unknown constraint")
}

// The claimed comparison must be the re-derived one: a certificate whose
// only corruption is LHS+1 or Cap-1 is rejected, for resource, domain
// and alignment claims alike.
func TestCertifyPruneChecksClaim(t *testing.T) {
	reg := pruneFacts(t, map[string]int64{"i": 512, "j": 512, "k": 4})
	reg.Constraint, reg.Nest, reg.LHS, reg.Cap = "register", "matmul", 6*512*512, 65536
	dom := pruneFacts(t, map[string]int64{"i": 2048, "j": 16, "k": 16})
	dom.Constraint, dom.Loop, dom.LHS, dom.Cap = "tile-domain", "i", 2048, 1024
	align := pruneFacts(t, map[string]int64{"i": 24, "j": 16, "k": 16})
	align.Constraint, align.Loop, align.WarpFraction, align.LHS, align.Cap = "tile-alignment", "i", 0.5, 24, 16
	for _, f := range []PruneFacts{reg, dom, align} {
		if err := CertifyPrune(f); err != nil {
			t.Fatalf("%s: genuine claim rejected: %v", f.Constraint, err)
		}
		lhs, capacity := f, f
		lhs.LHS++
		capacity.Cap--
		for what, bad := range map[string]PruneFacts{"LHS+1": lhs, "Cap-1": capacity} {
			var v *Violation
			if err := CertifyPrune(bad); !errors.As(err, &v) || v.Label != "prune-claim" {
				t.Fatalf("%s with %s: want a prune-claim Violation, got %v", f.Constraint, what, err)
			}
		}
	}
}

// A saturated claim (the analysis stops its int64 arithmetic at satLHS)
// stands for any re-derived value at least that large, and for nothing
// smaller.
func TestCertifyPruneSaturatedClaim(t *testing.T) {
	f := pruneFacts(t, map[string]int64{"i": 1 << 24, "j": 1 << 24, "k": 4})
	f.Constraint, f.Nest, f.LHS, f.Cap = "register", "matmul", satLHS, 65536
	if err := CertifyPrune(f); err != nil {
		t.Fatalf("6 * 2^48 saturates, the claim must replay: %v", err)
	}
	f.Tiles = map[string]int64{"i": 512, "j": 512, "k": 4}
	var v *Violation
	if err := CertifyPrune(f); !errors.As(err, &v) || v.Label != "prune-claim" {
		t.Fatalf("saturated claim on an unsaturated LHS: want a prune-claim Violation, got %v", err)
	}
}
