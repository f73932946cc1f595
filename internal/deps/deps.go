// Package deps performs dependence and reuse analysis on affine loop nests.
// It computes what the paper extracts from PPCG's isl-based scheduler:
// which loops are parallel, which carry (reduction) dependences, and — via
// reuse.go — the per-reference temporal/spatial reuse and coalesced-access
// structure that drives EATSS's model generation (Secs. IV-D, IV-E, IV-K).
//
// Domains are rectangular and subscripts affine, so a distance-vector
// framework with conservative "star" (unknown) components is exact for every
// kernel in the paper's evaluation and safe for anything else.
package deps

import (
	"fmt"
	"strings"

	"repro/internal/affine"
)

// ComponentKind describes one entry of a dependence distance vector.
type ComponentKind int

const (
	// Pinned means the distance at this loop is a known constant.
	Pinned ComponentKind = iota
	// Star means the distance at this loop is unconstrained (any value,
	// including zero, may occur).
	Star
)

// Component is one per-loop entry of a distance vector.
type Component struct {
	Kind ComponentKind
	Dist int64 // valid when Kind == Pinned
}

func (c Component) String() string {
	if c.Kind == Star {
		return "*"
	}
	return fmt.Sprintf("%d", c.Dist)
}

// canBeZero reports whether distance zero is feasible for this component.
func (c Component) canBeZero() bool { return c.Kind == Star || c.Dist == 0 }

// canBeNonZero reports whether a nonzero distance is feasible.
func (c Component) canBeNonZero() bool { return c.Kind == Star || c.Dist != 0 }

// Dependence is a data dependence between two references of the same nest.
type Dependence struct {
	Array      string
	SrcStmt    int // statement index in nest body
	DstStmt    int
	SrcRef     int // reference index within the source statement
	DstRef     int
	Components []Component // one per loop, outermost first
	// ReductionAssoc marks dependences that arise solely from an
	// associative accumulation (X += ...), which tiling may reorder.
	ReductionAssoc bool
}

// String renders the dependence as "Array: (d0, d1, ...)".
func (d Dependence) String() string {
	parts := make([]string, len(d.Components))
	for i, c := range d.Components {
		parts[i] = c.String()
	}
	return fmt.Sprintf("%s: (%s)", d.Array, strings.Join(parts, ","))
}

// CarriedAt returns the loop level (0-based) at which the dependence can be
// carried, i.e. the first level where a nonzero distance is feasible while
// all outer levels can be zero. Returns -1 for loop-independent
// dependences (all components pinned to zero).
func (d Dependence) CarriedAt() int {
	for i, c := range d.Components {
		if c.canBeNonZero() {
			return i
		}
		// component pinned to zero: continue outward-in
	}
	return -1
}

// CarriesLoop reports whether the dependence forbids parallel execution of
// loop level d: there exists an instance with zero distance on all outer
// levels and nonzero distance at level d.
func (d Dependence) CarriesLoop(level int) bool {
	if level >= len(d.Components) {
		return false
	}
	for i := 0; i < level; i++ {
		if !d.Components[i].canBeZero() {
			return false
		}
	}
	return d.Components[level].canBeNonZero()
}

// NestInfo is the analysis result for one loop nest.
type NestInfo struct {
	Nest *affine.Nest
	Deps []Dependence
	// Parallel[d] reports that loop d can run in parallel (no dependence,
	// other than pure associative reductions' self-updates handled by the
	// code generator, is carried at d).
	Parallel []bool
	// SequentialOnlyReduction[d] reports that every dependence carried at
	// loop d is a reduction accumulation, so the loop is serial per
	// thread but tiles of it may be reordered (permutable band).
	SequentialOnlyReduction []bool
}

// NumParallel returns the number of parallel loops in the nest.
func (ni *NestInfo) NumParallel() int {
	n := 0
	for _, p := range ni.Parallel {
		if p {
			n++
		}
	}
	return n
}

// AnalyzeNest computes dependences and loop parallelism for one nest.
func AnalyzeNest(n *affine.Nest) *NestInfo {
	info := &NestInfo{Nest: n}
	// Enumerate all pairs of references to the same array with at least
	// one write. Pairs within and across statements are both considered;
	// statement ordering within the body is not modeled (conservative).
	type refPos struct {
		stmt, ref int
		r         affine.Ref
		reduction bool
	}
	nrefs := 0
	for _, st := range n.Body {
		nrefs += len(st.Refs)
	}
	refs := make([]refPos, 0, nrefs)
	for si, st := range n.Body {
		for ri, r := range st.Refs {
			refs = append(refs, refPos{stmt: si, ref: ri, r: r, reduction: st.Reduction})
		}
	}
	for a := 0; a < len(refs); a++ {
		for b := a; b < len(refs); b++ {
			ra, rb := refs[a], refs[b]
			if ra.r.Array != rb.r.Array {
				continue
			}
			if !ra.r.Write && !rb.r.Write {
				continue
			}
			comps, feasible := distanceVector(n, ra.r, rb.r)
			if !feasible {
				continue
			}
			dep := Dependence{
				Array:      ra.r.Array,
				SrcStmt:    ra.stmt,
				DstStmt:    rb.stmt,
				SrcRef:     ra.ref,
				DstRef:     rb.ref,
				Components: comps,
				// The self-update of a reduction statement (write and
				// read of the accumulator within the same statement) is
				// associative.
				ReductionAssoc: ra.stmt == rb.stmt && ra.reduction,
			}
			if dep.CarriedAt() == -1 && a == b {
				continue // a reference trivially depends on itself
			}
			info.Deps = append(info.Deps, dep)
		}
	}

	depth := n.Depth()
	info.Parallel = make([]bool, depth)
	info.SequentialOnlyReduction = make([]bool, depth)
	for d := 0; d < depth; d++ {
		carried := false
		onlyReduction := true
		for _, dep := range info.Deps {
			if dep.CarriesLoop(d) {
				carried = true
				if !dep.ReductionAssoc {
					onlyReduction = false
				}
			}
		}
		info.Parallel[d] = !carried
		info.SequentialOnlyReduction[d] = carried && onlyReduction
	}
	return info
}

// distanceVector computes the distance vector between two references of the
// same array within the same nest. It returns feasible=false when the
// subscript equations are unsatisfiable (no dependence).
//
// For each loop iterator the component is:
//   - Pinned(c) when some subscript position pins the distance to c,
//   - Star when the iterator's distance is unconstrained or only partially
//     constrained (conservative).
//
// Conflicting pins across subscript positions make the pair infeasible.
func distanceVector(n *affine.Nest, src, dst affine.Ref) ([]Component, bool) {
	depth := n.Depth()
	comps := make([]Component, depth)
	pinned := make(map[string]int64)
	starred := make(map[string]bool)

	for p := 0; p < len(src.Subscripts) && p < len(dst.Subscripts); p++ {
		es, ed := src.Subscripts[p], dst.Subscripts[p]
		// Same single iterator with equal coefficient pins the distance:
		// c*i_src + k_s = c*i_dst + k_d  =>  i_src - i_dst = (k_d-k_s)/c.
		sn, sIt := soleIter(es)
		dn, dIt := soleIter(ed)
		switch {
		case sn == 1 && dn == 1 && sIt == dIt && es.IterCoeff(sIt) == ed.IterCoeff(dIt):
			it := sIt
			c := es.IterCoeff(it)
			diff := ed.Const - es.Const // parameter parts must match too
			if !paramsEqual(es, ed) {
				starred[it] = true
				continue
			}
			if diff%c != 0 {
				return nil, false // non-integer distance: no dependence
			}
			dist := diff / c
			if prev, ok := pinned[it]; ok && prev != dist {
				return nil, false // conflicting requirements
			}
			pinned[it] = dist
		case sn == 0 && dn == 0:
			// Constant subscripts: must be identical, else no dependence.
			if es.Const != ed.Const || !paramsEqual(es, ed) {
				return nil, false
			}
		default:
			// Multi-iterator or mismatched subscripts: every involved
			// iterator becomes unconstrained.
			starIters(starred, es)
			starIters(starred, ed)
		}
	}

	for d := 0; d < depth; d++ {
		name := n.Loops[d].Name
		usedSrc, usedDst := src.UsesIter(name), dst.UsesIter(name)
		switch {
		case starred[name]:
			comps[d] = Component{Kind: Star}
		case usedSrc || usedDst:
			if dist, ok := pinned[name]; ok {
				comps[d] = Component{Kind: Pinned, Dist: dist}
			} else {
				comps[d] = Component{Kind: Star}
			}
		default:
			// Iterator in neither reference: any distance reuses the
			// same address.
			comps[d] = Component{Kind: Star}
		}
	}
	return comps, true
}

// paramsEqual reports whether a.Sub(b) has no parameter terms, without
// building the difference: every parameter key of a is also a key of b,
// and every coefficient of b matches a's (an absent key reads as 0). Sub
// keeps a key of a that b lacks even at coefficient 0, so this test does
// too.
func paramsEqual(a, b affine.Expr) bool {
	for p := range a.Params {
		if _, ok := b.Params[p]; !ok {
			return false
		}
	}
	for p, c := range b.Params {
		if a.Params[p] != c {
			return false
		}
	}
	return true
}

// soleIter counts the iterators e uses (nonzero coefficient) and, when
// there is exactly one, returns its name.
func soleIter(e affine.Expr) (n int, name string) {
	for it, c := range e.Iters {
		if c != 0 {
			n++
			name = it
		}
	}
	return n, name
}

// starIters marks every iterator e uses as unconstrained.
func starIters(starred map[string]bool, e affine.Expr) {
	for it, c := range e.Iters {
		if c != 0 {
			starred[it] = true
		}
	}
}
