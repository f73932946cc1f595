package verify

import "math/big"

// Bound exposes one entry of the certifier's resource derivation to the
// external cross-check against internal/feas (crosscheck_test.go),
// which lives in package verify_test: it reads core's selections and
// feas's regions, and only the tests of the certifier may import what
// it certifies (selfcheck R8).
type Bound struct {
	Label, Nest string
	Cap         int64
	LHS         func(tiles map[string]int64) (*big.Int, string)
}

// Bounds is bounds for the cross-check.
func Bounds(f SelectionFacts) (out []Bound, serial []string) {
	bs, serial := f.bounds()
	for _, b := range bs {
		out = append(out, Bound{Label: b.label, Nest: b.nest, Cap: b.cap, LHS: b.lhs})
	}
	return out, serial
}

// UpperBounds is upperBounds for the cross-check.
func UpperBounds(f SelectionFacts) map[string]int64 { return f.upperBounds() }
