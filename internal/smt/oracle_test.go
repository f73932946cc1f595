package smt

import "sort"

// treeSolver is the reference Sec. IV-L search the compiled Solver must
// reproduce exactly: the same propagation, the same static variable
// order, the same depth-first value order and the same check order, but
// deciding every check by walking the constraint's Expr tree (Holds for
// fully assigned constraints, Bounds-based interval lookahead for the
// rest). Its Stats carry every counter the Solver reports except
// wall-clock time.
type treeSolver struct {
	p       *Problem
	Stats   Stats
	domains [][]int64
	descend bool
	extra   []Constraint
	order   []int
	rank    []int
}

func newTreeSolver(p *Problem) *treeSolver { return &treeSolver{p: p} }

// feasible reports whether c can possibly hold given variable bounds
// (interval reasoning; NE is never pruned).
func feasible(c Constraint, lo, hi []int64) bool {
	li := c.L.Bounds(lo, hi)
	ri := c.R.Bounds(lo, hi)
	switch c.Op {
	case LE:
		return li.Lo <= ri.Hi
	case LT:
		return li.Lo < ri.Hi
	case GE:
		return li.Hi >= ri.Lo
	case GT:
		return li.Hi > ri.Lo
	case EQ:
		return li.Lo <= ri.Hi && ri.Lo <= li.Hi
	default:
		return true
	}
}

func (s *treeSolver) propagate() {
	n := s.p.NumVars()
	s.domains = make([][]int64, n)
	copy(s.domains, s.p.domains)
	lo := make([]int64, n)
	hi := make([]int64, n)
	refresh := func() bool {
		for v, d := range s.domains {
			if len(d) == 0 {
				return false
			}
			lo[v], hi[v] = d[0], d[len(d)-1]
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		if !refresh() {
			return
		}
		for v := 0; v < n; v++ {
			d := s.domains[v]
			var kept []int64
			saveLo, saveHi := lo[v], hi[v]
			for _, val := range d {
				lo[v], hi[v] = val, val
				ok := true
				for _, c := range s.p.cons {
					if !feasible(c, lo, hi) {
						ok = false
						break
					}
				}
				if ok {
					kept = append(kept, val)
				} else {
					s.Stats.Tightenings++
					changed = true
				}
			}
			lo[v], hi[v] = saveLo, saveHi
			s.domains[v] = kept
			if len(kept) == 0 {
				return
			}
		}
	}
}

func (s *treeSolver) index() {
	n := s.p.NumVars()
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return len(s.p.domains[s.order[a]]) < len(s.p.domains[s.order[b]])
	})
	s.rank = make([]int, n)
	for pos, v := range s.order {
		s.rank[v] = pos
	}
}

func (s *treeSolver) solve() (Model, bool) {
	s.Stats.SolverCalls++
	n := s.p.NumVars()
	if s.domains == nil {
		s.propagate()
		s.index()
	}
	for _, d := range s.domains {
		if len(d) == 0 {
			return nil, false
		}
	}
	all := append(append([]Constraint(nil), s.p.cons...), s.extra...)
	labels := make([]string, len(all))
	counts := make([]int64, len(all))
	for i, c := range all {
		labels[i] = c.Label
		if labels[i] == "" {
			labels[i] = "unlabeled"
		}
	}
	depthCounts := make([]int64, n+1)
	defer func() {
		for i, k := range counts {
			if k == 0 {
				continue
			}
			if s.Stats.PruneByConstraint == nil {
				s.Stats.PruneByConstraint = make(map[string]int64)
			}
			s.Stats.PruneByConstraint[labels[i]] += k
		}
		for d, k := range depthCounts {
			if k == 0 {
				continue
			}
			if len(s.Stats.DepthNodes) <= d {
				s.Stats.DepthNodes = append(s.Stats.DepthNodes, make([]int64, d+1-len(s.Stats.DepthNodes))...)
			}
			s.Stats.DepthNodes[d] += k
		}
	}()
	byLast := make([][]int, n)
	for ci, c := range all {
		last := -1
		for _, v := range varsOf(c.L, c.R) {
			last = max(last, s.rank[v])
		}
		if last < 0 {
			if !c.Holds(nil) {
				return nil, false
			}
			continue
		}
		byLast[last] = append(byLast[last], ci)
	}
	lo := make([]int64, n)
	hi := make([]int64, n)
	for v, d := range s.domains {
		lo[v], hi[v] = d[0], d[len(d)-1]
	}
	model := make(Model, n)
	var dfs func(depth int) bool
	dfs = func(depth int) bool {
		s.Stats.Nodes++
		depthCounts[depth]++
		if depth == n {
			return true
		}
		v := Var(s.order[depth])
		dom := s.domains[v]
		for i := range dom {
			val := dom[i]
			if s.descend {
				val = dom[len(dom)-1-i]
			}
			model[v] = val
			saveLo, saveHi := lo[v], hi[v]
			lo[v], hi[v] = val, val
			ok := true
			for _, ci := range byLast[depth] {
				if !all[ci].Holds(model) {
					ok = false
					s.Stats.PruneViolated++
					counts[ci]++
					break
				}
			}
			for d := depth + 1; d < n && ok; d++ {
				for _, ci := range byLast[d] {
					if !feasible(all[ci], lo, hi) {
						ok = false
						s.Stats.PruneInterval++
						counts[ci]++
						break
					}
				}
			}
			if ok && dfs(depth+1) {
				return true
			}
			lo[v], hi[v] = saveLo, saveHi
		}
		return false
	}
	if !dfs(0) {
		return nil, false
	}
	return append(Model(nil), model...), true
}

// round mirrors Solver.solveRound's accounting.
func (s *treeSolver) round(obj Expr) (Model, int64, bool) {
	m, sat := s.solve()
	s.Stats.Rounds++
	if !sat {
		return nil, 0, false
	}
	return m, obj.Eval(m), true
}

func (s *treeSolver) note(round int, val int64) {
	s.Stats.Incumbents = append(s.Stats.Incumbents, Incumbent{Round: round, Objective: val, Nodes: s.Stats.Nodes})
}

// maximize is the OBJ_{n+1} > OBJ_n climb of Solver.MaximizeCtx.
func (s *treeSolver) maximize(obj Expr) (Model, int64, bool) {
	s.Stats.Incumbents = nil
	s.extra = nil
	s.descend = false
	best, bestVal, sat := s.round(obj)
	if !sat {
		return nil, 0, false
	}
	s.note(0, bestVal)
	s.descend = true
	for round := 1; ; round++ {
		s.extra = []Constraint{{L: obj, Op: GT, R: C(bestVal), Label: "objective"}}
		m, val, sat := s.round(obj)
		if !sat {
			break
		}
		best, bestVal = m, val
		s.note(round, bestVal)
	}
	s.extra = nil
	return best, bestVal, true
}

// resolveAtLeast mirrors MaximizeParts's re-solve of a part that did not
// climb: one descending round under obj >= k.
func (s *treeSolver) resolveAtLeast(obj Expr, k int64) (Model, bool) {
	s.descend = true
	s.extra = []Constraint{{L: obj, Op: GE, R: C(k), Label: "objective"}}
	m, _, sat := s.round(obj)
	s.extra = nil
	return m, sat
}
