package smt

import (
	"context"

	"repro/internal/obs"
)

// Test-only search entry points: the brute-force model enumeration and
// the alternative optimizers the Maximize climb is cross-checked
// against. Production code maximizes through MaximizeCtx and
// MaximizeParts only.

// Enumerate calls fn for every model of the problem until fn returns false
// or the space is exhausted. It returns the number of models visited.
// It is the brute-force oracle the search tests check against.
func (s *Solver) Enumerate(fn func(Model) bool) int {
	n := s.p.NumVars()
	for _, d := range s.p.domains {
		if len(d) == 0 {
			return 0
		}
	}
	model := make(Model, n)
	count := 0
	stopped := false
	var dfs func(v int)
	dfs = func(v int) {
		if stopped {
			return
		}
		if v == n {
			for _, c := range s.p.cons {
				if !c.Holds(model) {
					return
				}
			}
			count++
			cp := make(Model, n)
			copy(cp, model)
			if !fn(cp) {
				stopped = true
			}
			return
		}
		for _, val := range s.p.domains[v] {
			model[Var(v)] = val
			dfs(v + 1)
			if stopped {
				return
			}
		}
	}
	dfs(0)
	return count
}

// Minimize finds a model minimizing obj, via Maximize on its negation.
func (s *Solver) Minimize(obj Expr) (best Model, bestVal int64, ok bool) {
	return s.MinimizeCtx(context.Background(), obj)
}

// MinimizeCtx is Minimize with the caller's context threaded through
// (see MaximizeCtx for the cancellation semantics).
func (s *Solver) MinimizeCtx(ctx context.Context, obj Expr) (best Model, bestVal int64, ok bool) {
	m, negVal, ok := s.MaximizeCtx(ctx, Scale(-1, obj))
	if !ok {
		return nil, 0, false
	}
	return m, -negVal, true
}

// MaximizeBinary finds the objective maximum by binary search over the
// objective's interval bounds instead of the paper's linear
// OBJ_{n+1} > OBJ_n improvement loop. It visits O(log range) solver calls
// and returns the same optimum as Maximize (cross-checked in tests); use
// it when the objective range is wide and call count matters more than
// mirroring the paper's Sec. IV-L procedure.
func (s *Solver) MaximizeBinary(obj Expr) (best Model, bestVal int64, ok bool) {
	return s.MaximizeBinaryCtx(context.Background(), obj)
}

// MaximizeBinaryCtx is MaximizeBinary with the caller's context threaded
// through (see MaximizeCtx for the cancellation semantics).
func (s *Solver) MaximizeBinaryCtx(ctx context.Context, obj Expr) (best Model, bestVal int64, ok bool) {
	start := obs.Now()
	s.Stats.Incumbents = nil
	s.attach(obj)
	s.descend = false
	round := 0
	m, val, sat := s.solveRound(ctx, obj, round)
	if !sat {
		return nil, 0, false
	}
	best, bestVal = m, val
	s.noteIncumbent(round, bestVal, start)

	// Upper bound from interval arithmetic over the variable domains.
	n := s.p.NumVars()
	lo := make([]int64, n)
	hi := make([]int64, n)
	for v, d := range s.p.domains {
		lo[v], hi[v] = d[0], d[len(d)-1]
	}
	upper := obj.Bounds(lo, hi).Hi

	s.descend = true
	loVal := bestVal
	for loVal < upper && ctx.Err() == nil {
		round++
		mid := loVal + (upper-loVal+1)/2
		s.enforce(GE, mid)
		m, val, sat := s.solveRound(ctx, obj, round)
		if !sat {
			upper = mid - 1
			continue
		}
		best, bestVal = m, val
		loVal = bestVal
		s.noteIncumbent(round, bestVal, start)
	}
	s.objOn = false
	return best, bestVal, true
}
