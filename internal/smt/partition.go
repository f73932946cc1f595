package smt

import "context"

// Part is one connected component of a Problem: a sub-problem over the
// component's variables, with its share of each objective the problem
// was partitioned against.
type Part struct {
	Problem *Problem
	// Vars maps the part's variables back to the whole problem's: part
	// variable i is whole-problem variable Vars[i]. Nil when the part is
	// the whole problem.
	Vars []Var
	// Objs[k] is the part's share of the k-th objective passed to
	// Partition: the sum of that objective's monomials over the part's
	// variables, or C(0) when it has none.
	Objs []Expr
}

// Partition splits p into the connected components of its variable
// graph. The graph has one node per variable and joins the variables of
// each constraint and of each monomial of each objective, so a
// model of p is exactly a combination of one model per part, and each
// objective is the sum of its per-part shares. Parts come in the order
// of their lowest variable, and each part numbers its variables in their
// original order, so the solver's variable order inside a part is the
// restriction of its order over p. Constraints and objective monomials
// without variables go to the first part.
//
// A problem with a single component comes back as one part holding p
// itself, nil Vars and objs unchanged, so solving it takes exactly the
// whole-problem path.
func (p *Problem) Partition(objs ...Expr) []Part {
	n := p.NumVars()
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	var find func(v int) int
	find = func(v int) int {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	// link joins the variables of vss and returns one of them, or -1
	// when they hold none.
	link := func(vss ...[]int32) int {
		first := -1
		for _, vs := range vss {
			for _, v := range vs {
				if first < 0 {
					first = int(v)
				}
				parent[find(int(v))] = find(first)
			}
		}
		return first
	}
	consAt := make([]int, len(p.cons))
	for i, c := range p.cons {
		consAt[i] = link(c.L.occs(), c.R.occs())
	}
	termAt := make([][]int, len(objs))
	for k, o := range objs {
		termAt[k] = make([]int, len(o.coef))
		for t := range o.coef {
			termAt[k][t] = link(o.mono(t))
		}
	}

	comp := make([]int, n)
	ids := make(map[int]int)
	for v := range comp {
		root := find(v)
		id, ok := ids[root]
		if !ok {
			id = len(ids)
			ids[root] = id
		}
		comp[v] = id
	}
	if len(ids) <= 1 {
		return []Part{{Problem: p, Objs: objs}}
	}

	parts := make([]Part, len(ids))
	local := make([]Var, n)
	for v, c := range comp {
		pt := &parts[c]
		if pt.Problem == nil {
			pt.Problem = NewProblem()
		}
		local[v] = Var(len(pt.Vars))
		pt.Vars = append(pt.Vars, Var(v))
		pt.Problem.names = append(pt.Problem.names, p.names[v])
		pt.Problem.domains = append(pt.Problem.domains, p.domains[v])
	}
	partOf := func(v int) int {
		if v < 0 {
			return 0
		}
		return comp[v]
	}
	for i, c := range p.cons {
		pp := parts[partOf(consAt[i])].Problem
		pp.cons = append(pp.cons, Constraint{L: c.L.remap(nil, local), Op: c.Op, R: c.R.remap(nil, local), Label: c.Label})
	}
	for k, o := range objs {
		share := make([][]int, len(parts))
		for t, v := range termAt[k] {
			c := partOf(v)
			share[c] = append(share[c], t)
		}
		for c := range parts {
			obj := C(0)
			if len(share[c]) > 0 {
				obj = o.remap(share[c], local)
			}
			parts[c].Objs = append(parts[c].Objs, obj)
		}
	}
	return parts
}

// Merge assembles a whole-problem model from one model per part.
func Merge(parts []Part, models []Model) Model {
	if len(parts) == 1 && parts[0].Vars == nil {
		return models[0]
	}
	var n int
	for _, pt := range parts {
		n += len(pt.Vars)
	}
	out := make(Model, n)
	for c, pt := range parts {
		for i, v := range pt.Vars {
			out[v] = models[c][i]
		}
	}
	return out
}

// MaximizeParts maximizes a partitioned problem: solvers[c] and objs[c]
// are part c's solver and objective share. It runs MaximizeCtx on each
// part and merges the per-part results so that they are exactly the
// parts of the model one MaximizeCtx over the whole problem returns.
//
// That climb ends on one of two models: its round-0 model, the first in
// ascending value order, when round 0 was already optimal; otherwise the
// first optimal model in descending value order. Because the whole
// problem's models are the combinations of its parts' models, its
// objective the sum of their shares, and the search order inside a part
// the restriction of the whole order, either model is the combination of
// the per-part models of the same kind. Hence the merge rule:
//
//   - if no part improved past its round 0, every part keeps its round-0
//     model;
//   - otherwise each part that did not improve is solved once more,
//     descending, under obj_c >= best_c.
//
// A single part therefore costs exactly one MaximizeCtx. ok is false when
// some part is unsatisfiable; the parts after it are not solved.
func MaximizeParts(ctx context.Context, solvers []*Solver, objs []Expr) (models []Model, vals []int64, ok bool) {
	models = make([]Model, len(solvers))
	vals = make([]int64, len(solvers))
	improved := false
	for c, s := range solvers {
		if models[c], vals[c], ok = s.MaximizeCtx(ctx, objs[c]); !ok {
			return nil, nil, false
		}
		improved = improved || len(s.Stats.Incumbents) > 1
	}
	if !improved {
		return models, vals, true
	}
	for c, s := range solvers {
		if len(s.Stats.Incumbents) > 1 {
			continue
		}
		s.descend = true
		s.enforce(GE, vals[c]) // objs[c] is still attached from MaximizeCtx
		if m, _, sat := s.solveRound(ctx, objs[c], 1); sat {
			models[c] = m
		}
		s.objOn = false
	}
	return models, vals, true
}

// MergeStats sums per-part solver statistics into one record: counters
// and per-constraint prunes add up, and the depth histograms add up
// index by index. The incumbent timeline advances the parts in
// lockstep: round r's objective is the sum of each part's incumbent
// after its own round r (its last one when it stopped climbing earlier),
// with Nodes and Elapsed summed the same way. A single part's statistics
// come back unchanged.
func MergeStats(parts []Stats) Stats {
	if len(parts) == 1 {
		return parts[0]
	}
	var out Stats
	rounds := 0
	for _, st := range parts {
		out.SolverCalls += st.SolverCalls
		out.Nodes += st.Nodes
		out.PruneViolated += st.PruneViolated
		out.PruneInterval += st.PruneInterval
		out.Tightenings += st.Tightenings
		out.Rounds += st.Rounds
		out.Elapsed += st.Elapsed
		for l, n := range st.PruneByConstraint {
			if out.PruneByConstraint == nil {
				out.PruneByConstraint = make(map[string]int64)
			}
			out.PruneByConstraint[l] += n
		}
		if len(out.DepthNodes) < len(st.DepthNodes) {
			out.DepthNodes = append(out.DepthNodes, make([]int64, len(st.DepthNodes)-len(out.DepthNodes))...)
		}
		for d, n := range st.DepthNodes {
			out.DepthNodes[d] += n
		}
		rounds = max(rounds, len(st.Incumbents))
	}
	for r := 0; r < rounds; r++ {
		inc := Incumbent{Round: r}
		for _, st := range parts {
			if len(st.Incumbents) == 0 {
				continue
			}
			at := st.Incumbents[min(r, len(st.Incumbents)-1)]
			inc.Objective += at.Objective
			inc.Nodes += at.Nodes
			inc.Elapsed += at.Elapsed
		}
		out.Incumbents = append(out.Incumbents, inc)
	}
	return out
}
