package verify

import (
	"math"
	"math/big"
)

// PruneFacts is everything CertifyPrune needs about one static prune
// verdict (internal/feas's PruneCert, flattened so the certifier stays
// independent of the analysis it checks — feas imports nothing from
// verify and vice versa). The embedded SelectionFacts carries the
// inputs (kernel, params, GPU, model options) and the judged Tiles;
// the extra fields carry the claim.
type PruneFacts struct {
	SelectionFacts

	// Constraint names the claimed-violated constraint ("tile-domain",
	// "tile-alignment", "parallelism", "register", "shared-capacity",
	// "l1-capacity", "l2-share").
	Constraint string
	// Nest / Loop locate resource / domain constraints respectively.
	Nest string
	Loop string
	// Region claims the whole tile region is infeasible — the violation
	// must then hold at the domain box's minimum corner, which the
	// certifier re-derives itself (monotone left-hand sides take their
	// minimum there, so a violation at the corner covers every point).
	Region bool
	// LHS and Cap are the claimed comparison LHS > Cap: a resource
	// bound's left-hand side and capacity; for a domain claim the tile
	// (the domain minimum for Region claims) and the domain bound; for
	// an alignment claim the tile and the step. Each must equal the
	// certifier's own value, or the replay fails with a "prune-claim"
	// Violation.
	LHS, Cap int64
}

// satLHS is where the analysis saturates its int64 left-hand sides
// (math.MaxInt64 >> 16): a claimed LHS of exactly this value stands for
// any re-derived value at least as large.
const satLHS = math.MaxInt64 >> 16

// checkClaim compares the certificate's claimed LHS and Cap with the
// re-derived ones.
func (f PruneFacts) checkClaim(lhs *big.Int, capacity int64) error {
	lhsOK := lhs.IsInt64() && lhs.Int64() == f.LHS ||
		f.LHS == satLHS && lhs.Cmp(big.NewInt(satLHS)) >= 0
	if !lhsOK || f.Cap != capacity {
		return violationf("prune-claim", "certificate claims LHS %d and cap %d, the re-derivation gives %s and %d",
			f.LHS, f.Cap, lhs, capacity)
	}
	return nil
}

// step is the tile-domain step the claim was made under. Unlike
// SelectionFacts.warpAlignment (which normalizes WarpFraction 0 to full
// warps, matching the solver's defaulting), a zero WarpFraction here
// means alignment was not part of the checked constraint family (sweep
// prunes), so the step is 1.
func (f PruneFacts) step() int64 {
	if f.WarpFraction == 0 {
		return 1
	}
	return f.warpAlignment()
}

// CertifyPrune replays one prune certificate from first principles: the
// claimed constraint is looked up in the certifier's own derivation —
// upperBounds for domain claims, bounds (the list CertifySelection
// decides) for resource claims, built from the kernel, GPU description
// and a fresh dependence/reuse analysis, none of internal/feas's
// interval machinery — and re-evaluated in arbitrary precision at the
// claimed point (or at the independently re-derived domain minimum for
// Region claims). A claim naming a constraint the derivation does not
// contain is a false prune. nil means the claim holds: the point (or
// every point) is genuinely infeasible under the named constraint. A Violation labeled
// "false-prune" means the certificate pruned a feasible point — a bug
// in the static analysis, and the exact failure mode the catalog-wide
// soundness gate exists to rule out.
func CertifyPrune(f PruneFacts) error {
	if f.Kernel == nil || f.GPU == nil {
		return violationf("facts", "kernel and GPU must be set")
	}
	step := f.step()
	upper := f.upperBounds()

	tiles := f.Tiles
	if f.Region {
		// Re-derive the domain minimum corner ourselves; a Region claim
		// carrying tiles must agree with it (otherwise the "minimum" the
		// analysis evaluated is not the domain minimum and the monotone
		// argument collapses).
		corner := make(map[string]int64, len(upper))
		for name := range upper {
			corner[name] = step
		}
		for name, t := range tiles {
			if want, ok := corner[name]; !ok || t != want {
				return violationf("false-prune",
					"region certificate evaluates T_%s = %d, but the domain minimum is %d", name, t, corner[name])
			}
		}
		tiles = corner
	}

	switch f.Constraint {
	case "tile-domain":
		if f.Region {
			// Empty domain: even the smallest admissible multiple
			// exceeds the upper bound.
			if hi, ok := upper[f.Loop]; ok && step > hi {
				return f.checkClaim(big.NewInt(step), hi)
			}
			return violationf("false-prune",
				"domain of T_%s is not empty (step %d <= bound %d)", f.Loop, step, upper[f.Loop])
		}
		t, ok := f.Tiles[f.Loop]
		if !ok {
			return violationf("false-prune", "certificate names loop %q but judges no tile for it", f.Loop)
		}
		hi, known := upper[f.Loop]
		if !known {
			return violationf("false-prune", "kernel has no loop %q", f.Loop)
		}
		if t < step || t%step != 0 || t > (hi/step)*step {
			return f.checkClaim(big.NewInt(t), (hi/step)*step)
		}
		return violationf("false-prune",
			"T_%s = %d is inside the declared domain [%d, %d] step %d", f.Loop, t, step, hi, step)

	case "tile-alignment":
		t, ok := f.Tiles[f.Loop]
		if !ok {
			return violationf("false-prune", "certificate names loop %q but judges no tile for it", f.Loop)
		}
		if step > 1 && (t < step || t%step != 0) {
			return f.checkClaim(big.NewInt(t), step)
		}
		return violationf("false-prune",
			"T_%s = %d is a positive multiple of the step %d", f.Loop, t, step)

	case "parallelism":
		bounds, serial := f.bounds()
		for _, n := range serial {
			if n == f.Nest {
				return nil
			}
		}
		for _, b := range bounds {
			if b.nest == f.Nest {
				return violationf("false-prune", "nest %q has a parallel loop", f.Nest)
			}
		}
		return violationf("false-prune", "kernel has no nest %q", f.Nest)
	}

	// Every other claim names one of the re-derived resource bounds.
	bounds, _ := f.bounds()
	for _, b := range bounds {
		if b.label != f.Constraint || b.nest != f.Nest {
			continue
		}
		lhs, missing := b.lhs(tiles)
		if missing != "" {
			return violationf("false-prune",
				"nest %q: no tile for loop %q — the %s left-hand side is unbounded by the claim", f.Nest, missing, b.label)
		}
		if lhs.Cmp(big.NewInt(b.cap)) > 0 {
			return f.checkClaim(lhs, b.cap)
		}
		return violationf("false-prune", "nest %q: %s %s is within %s %d", f.Nest, b.lhsName, lhs, b.capName, b.cap)
	}
	return violationf("false-prune", "no %q constraint on nest %q under these options", f.Constraint, f.Nest)
}
