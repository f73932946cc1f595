package deps

import (
	"fmt"

	"repro/internal/affine"
)

// This file provides an exact (Fourier–Motzkin-based) dependence oracle
// on top of intlin_oracle_test.go. The fast distance-vector analysis in
// deps.go is what the pipeline uses; the oracle exists to *verify* it: a
// loop the fast analysis classifies as parallel must have no carried
// dependence under the exact test (soundness), and carried
// classifications can be confirmed (completeness on the catalog). See
// exact_test.go and external_test.go.

// ExactCarriesLoop reports whether a dependence between src and dst
// (references to the same array, at least one write) can be carried at the
// given loop level of the nest: there exist iteration instances that
// access the same element, agree on all loops outer than level, and
// differ at level. Problem sizes are taken from params.
func ExactCarriesLoop(n *affine.Nest, params map[string]int64, src, dst affine.Ref, level int) (bool, error) {
	if src.Array != dst.Array {
		return false, nil
	}
	if len(src.Subscripts) != len(dst.Subscripts) {
		return false, fmt.Errorf("deps: rank mismatch on array %s", src.Array)
	}
	// Either direction at the carrying level counts.
	for _, dir := range []int{+1, -1} {
		feasible, err := carriedSystem(n, params, src, dst, level, dir)
		if err != nil {
			return false, err
		}
		if feasible {
			return true, nil
		}
	}
	return false, nil
}

// carriedSystem builds and decides one directed system.
func carriedSystem(n *affine.Nest, params map[string]int64, src, dst affine.Ref, level, dir int) (bool, error) {
	depth := n.Depth()
	vars := make([]string, 0, 2*depth)
	sName := func(d int) string { return fmt.Sprintf("s%d", d) }
	dName := func(d int) string { return fmt.Sprintf("d%d", d) }
	for d := 0; d < depth; d++ {
		vars = append(vars, sName(d), dName(d))
	}
	sys := NewSystem(vars...)

	// Loop bounds for both instances.
	for d, l := range n.Loops {
		lo := l.Lower.Eval(nil, params)
		hi := l.Upper.Eval(nil, params) - 1
		if hi < lo {
			return false, nil // empty loop: no iterations, no dependence
		}
		if err := sys.AddBounds(sName(d), lo, hi); err != nil {
			return false, err
		}
		if err := sys.AddBounds(dName(d), lo, hi); err != nil {
			return false, err
		}
	}

	// Subscript equalities: e_src(s) - e_dst(d) == 0 per position.
	for p := range src.Subscripts {
		es := src.Subscripts[p].EvalParams(params)
		ed := dst.Subscripts[p].EvalParams(params)
		coefs := map[string]int64{}
		for d, l := range n.Loops {
			if c := es.IterCoeff(l.Name); c != 0 {
				coefs[sName(d)] += c
			}
			if c := ed.IterCoeff(l.Name); c != 0 {
				coefs[dName(d)] -= c
			}
		}
		if err := sys.AddEq(coefs, es.Const-ed.Const); err != nil {
			return false, err
		}
	}

	// Ordering: equal on outer levels, strictly different at `level`.
	for o := 0; o < level; o++ {
		if err := sys.AddEq(map[string]int64{sName(o): 1, dName(o): -1}, 0); err != nil {
			return false, err
		}
	}
	// dir=+1: d_level >= s_level + 1; dir=-1: s_level >= d_level + 1.
	if dir > 0 {
		if err := sys.AddGeq(map[string]int64{dName(level): 1, sName(level): -1}, -1); err != nil {
			return false, err
		}
	} else {
		if err := sys.AddGeq(map[string]int64{sName(level): 1, dName(level): -1}, -1); err != nil {
			return false, err
		}
	}
	return sys.Feasible(), nil
}

// ParallelismViolation describes a loop the fast analysis calls parallel
// while the exact oracle finds a carried dependence.
type ParallelismViolation struct {
	Nest  string
	Loop  string
	Array string
}

func (v ParallelismViolation) String() string {
	return fmt.Sprintf("nest %s: loop %s carries a dependence on %s", v.Nest, v.Loop, v.Array)
}

// VerifyParallelism cross-checks AnalyzeNest against the exact oracle for
// one nest: every loop classified parallel must be free of carried
// dependences over all same-array reference pairs with a write. It
// returns the violations (empty = sound).
func VerifyParallelism(n *affine.Nest, params map[string]int64) ([]ParallelismViolation, error) {
	info := AnalyzeNest(n)
	var out []ParallelismViolation

	type refPos struct{ r affine.Ref }
	var refs []refPos
	for _, st := range n.Body {
		for _, r := range st.Refs {
			refs = append(refs, refPos{r})
		}
	}
	for level, par := range info.Parallel {
		if !par {
			continue
		}
		for a := 0; a < len(refs); a++ {
			for b := a; b < len(refs); b++ {
				ra, rb := refs[a].r, refs[b].r
				if ra.Array != rb.Array || (!ra.Write && !rb.Write) {
					continue
				}
				carried, err := ExactCarriesLoop(n, params, ra, rb, level)
				if err != nil {
					return nil, err
				}
				if carried {
					out = append(out, ParallelismViolation{
						Nest: n.Name, Loop: n.Loops[level].Name, Array: ra.Array,
					})
				}
			}
		}
	}
	return out, nil
}
