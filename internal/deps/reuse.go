package deps

import (
	"slices"

	"repro/internal/affine"
)

// MemClass says which memory a reference should be mapped to (Sec. IV-E).
type MemClass int

const (
	// MemL1 marks cache-mappable references: they access memory
	// contiguously along the CMA loop (or are frequently updated write
	// targets) and exploit the hardware-managed L1/L2 caches.
	MemL1 MemClass = iota
	// MemShared marks references incapable of coalesced access along the
	// CMA loop; they are staged in software-managed shared memory.
	MemShared
)

func (m MemClass) String() string {
	if m == MemShared {
		return "shared"
	}
	return "L1"
}

// RefReuse summarizes the reuse structure of one array reference
// (paper Table II).
type RefReuse struct {
	Stmt int
	Ref  affine.Ref
	// Stride1Iter is the iterator walking the fastest-varying subscript
	// with unit stride ("" when the access has no stride-1 loop).
	Stride1Iter string
	// TemporalIters lists nest iterators that do not appear in any
	// subscript: the reference is invariant (O(n) temporal reuse) along
	// them.
	TemporalIters []string
	// Class is the memory-type assignment of Sec. IV-E.
	Class MemClass
}

// UsesIter reports whether the underlying reference uses the iterator.
func (rr RefReuse) UsesIter(name string) bool { return rr.Ref.UsesIter(name) }

// NestReuse is the per-nest reuse analysis EATSS consumes.
type NestReuse struct {
	Nest *affine.Nest
	Info *NestInfo
	// CMALoop is l_s1 (Sec. IV-D): the loop chosen for coalesced memory
	// accesses — the stride-1 iterator of the largest number of
	// references. Empty when no reference has a stride-1 loop.
	CMALoop string
	// Refs holds one entry per (statement, reference).
	Refs []RefReuse
	// HRaw maps each loop iterator to the number of references whose
	// fastest-varying (stride-1) dimension it walks. These are the raw
	// H_i counts of Sec. IV-K before warp-alignment scaling and
	// parallel/serial adjustments (applied by the model generator, which
	// knows the warp-alignment factor).
	HRaw map[string]int64
	// DistinctLineRefs counts references that touch distinct cache lines
	// (Sec. IV-G): references to the same array whose subscripts differ
	// only by a small constant in the fastest-varying dimension share a
	// line and count once. Used for the register-per-SM estimate.
	DistinctLineRefs int64
}

// cacheLineMergeDist is the subscript-constant difference (in elements)
// under which two references to the same array are assumed to land in the
// same cache line (Sec. IV-G's fdtd-2d example).
const cacheLineMergeDist = 8

// AnalyzeReuse runs dependence analysis and reuse classification on a nest.
func AnalyzeReuse(n *affine.Nest) *NestReuse {
	info := AnalyzeNest(n)
	nr := &NestReuse{Nest: n, Info: info, HRaw: make(map[string]int64)}

	// Per-reference structure.
	nrefs := 0
	for _, st := range n.Body {
		nrefs += len(st.Refs)
	}
	if nrefs > 0 {
		nr.Refs = make([]RefReuse, 0, nrefs)
	}
	for si, st := range n.Body {
		for _, r := range st.Refs {
			rr := RefReuse{Stmt: si, Ref: r, Stride1Iter: r.Stride1Iter()}
			for _, l := range n.Loops {
				if !r.UsesIter(l.Name) {
					rr.TemporalIters = append(rr.TemporalIters, l.Name)
				}
			}
			nr.Refs = append(nr.Refs, rr)
		}
	}

	// H_i raw counts and CMA loop selection (Sec. IV-D): H_i counts how
	// often iterator i appears (with unit stride) in a fastest-varying
	// subscript, over distinct references (an accumulator's read and
	// write count once — the paper's matmul example has H_j = 2).
	// Prefer as CMA loop the one with the highest count, breaking ties
	// in favor of parallel loops, then of inner loops (closer to
	// thread-id mapping).
	for i, rr := range nr.Refs {
		if slices.ContainsFunc(nr.Refs[:i], func(o RefReuse) bool { return sameShape(o.Ref, rr.Ref, false) }) {
			continue // counted at its first appearance
		}
		for it, c := range rr.Ref.FastestVarying().Iters {
			if unitStride(c) {
				nr.HRaw[it]++
			}
		}
	}
	best, bestCount := "", int64(0)
	for d := range n.Loops {
		name := n.Loops[d].Name
		c := nr.HRaw[name]
		if c == 0 {
			continue
		}
		better := c > bestCount
		if c == bestCount && best != "" {
			bi := n.LoopIndex(best)
			// Tie-break: parallel beats serial; inner beats outer.
			if info.Parallel[d] != info.Parallel[bi] {
				better = info.Parallel[d]
			} else {
				better = d > bi
			}
		}
		if better {
			best, bestCount = name, c
		}
	}
	nr.CMALoop = best

	// Memory classification (Sec. IV-E): stride-1 along l_s1 => L1;
	// frequently-updated write targets stay in cache => L1; everything
	// else is staged in shared memory.
	for i := range nr.Refs {
		rr := &nr.Refs[i]
		switch {
		case nr.CMALoop != "" && unitStride(rr.Ref.FastestVarying().Iters[nr.CMALoop]):
			rr.Class = MemL1
		case rr.Ref.Write:
			rr.Class = MemL1
		default:
			rr.Class = MemShared
		}
	}

	nr.DistinctLineRefs = countDistinctLineRefs(nr.Refs)
	return nr
}

// unitStride reports whether an iterator with coefficient c in the
// fastest-varying subscript walks it with unit stride, the test
// affine.Ref.Stride1Iters applies.
func unitStride(c int64) bool { return c == 1 || c == -1 }

// sameShape reports whether two references have the same array and
// subscripts with the same nonzero terms and constants; with
// anyLastConst the fastest-varying constants may differ. It decides what
// comparing the rendered references (UniqueArrayRefs' key) decides,
// without rendering, whenever no name is an iterator in one subscript
// and a parameter in the other (never so for parsed or catalog kernels,
// whose names resolve one way per nest).
func sameShape(a, b affine.Ref, anyLastConst bool) bool {
	if a.Array != b.Array || len(a.Subscripts) != len(b.Subscripts) {
		return false
	}
	last := len(a.Subscripts) - 1
	for i, sa := range a.Subscripts {
		sb := b.Subscripts[i]
		if (sa.Const != sb.Const && !(anyLastConst && i == last)) ||
			!sameTerms(sa.Iters, sb.Iters) || !sameTerms(sa.Params, sb.Params) {
			return false
		}
	}
	return true
}

// sameTerms reports whether two coefficient maps have the same nonzero
// entries.
func sameTerms(a, b map[string]int64) bool {
	for k, v := range a {
		if v != 0 && b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if v != 0 && a[k] != v {
			return false
		}
	}
	return true
}

// countDistinctLineRefs merges references that are guaranteed to share a
// cache line and counts the groups. A group is keyed by the first
// reference of its linear structure (sameShape, any fastest-varying
// constant); a later reference that would stretch the group's constant
// spread past a line counts as a new line but does not start a group.
func countDistinctLineRefs(refs []RefReuse) int64 {
	type group struct {
		ref        affine.Ref
		minC, maxC int64
	}
	var groups []group
	count := int64(0)
next:
	for _, rr := range refs {
		c := int64(0)
		if len(rr.Ref.Subscripts) > 0 {
			c = rr.Ref.FastestVarying().Const
		}
		for gi := range groups {
			g := &groups[gi]
			if !sameShape(g.ref, rr.Ref, true) {
				continue
			}
			// Same linear structure: same line if the constant spread
			// stays within a line.
			lo, hi := min(g.minC, c), max(g.maxC, c)
			if hi-lo < cacheLineMergeDist {
				g.minC, g.maxC = lo, hi
			} else {
				// Too far apart: this reference starts a new line.
				count++
			}
			continue next
		}
		groups = append(groups, group{ref: rr.Ref, minC: c, maxC: c})
		count++
	}
	return count
}

// UniqueArrayRefs deduplicates references by (array, subscript shape),
// merging e.g. the read and write of an accumulator. The returned slice
// preserves first-appearance order; Class/Write are OR-ed across merged
// references (a write anywhere makes the merged reference a write).
func UniqueArrayRefs(refs []RefReuse) []RefReuse {
	seen := make(map[string]int, len(refs))
	var out []RefReuse
	if len(refs) > 0 {
		out = make([]RefReuse, 0, len(refs))
	}
	for _, rr := range refs {
		key := rr.Ref.String()
		if i, ok := seen[key]; ok {
			if rr.Ref.Write {
				out[i].Ref.Write = true
			}
			continue
		}
		seen[key] = len(out)
		out = append(out, rr)
	}
	return out
}
