package smt

import (
	"context"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Package-level telemetry instruments. Updates are batched per Solve
// call (never per search node) and cost nothing while obs is disabled.
var (
	mSolveCalls    = obs.NewCounter("smt.solve_calls")
	mNodes         = obs.NewCounter("smt.nodes")
	mPruneViolated = obs.NewCounter("smt.prune.violated")
	mPruneInterval = obs.NewCounter("smt.prune.interval")
	mTightenings   = obs.NewCounter("smt.propagation.tightenings")
	mRounds        = obs.NewCounter("smt.rounds")
	mUnsat         = obs.NewCounter("smt.unsat")
	// mIncumbent is the live incumbent objective of the most recent
	// Maximize round (the OBJ_{n+1} > OBJ_n climb, Sec. IV-L).
	mIncumbent = obs.NewGauge("smt.incumbent_objective")
	// mSearchDepth profiles where the search spends its nodes; samples
	// are batched per solve via ObserveN, never per node.
	mSearchDepth = obs.NewHistogram("smt.search_depth", 1, 2, 3, 4, 6, 8, 12)
	// mRoundSec distributes per-round solve latency (one Maximize
	// iteration), the companion to eatss.sweep.point_seconds on /metrics.
	mRoundSec = obs.NewHistogram("smt.round_seconds",
		1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1)
)

// Stats records solver effort, mirroring the measurements of Sec. V-G
// (solver calls per EATSS run, time per call).
type Stats struct {
	// SolverCalls counts complete satisfiability checks (one per
	// iteration of the Maximize loop).
	SolverCalls int
	// Nodes counts search-tree nodes across all calls.
	Nodes int64
	// PruneViolated counts nodes rejected because a fully-assigned
	// constraint did not hold.
	PruneViolated int64
	// PruneInterval counts nodes cut by interval-arithmetic lookahead on
	// constraints that were not yet fully assigned.
	PruneInterval int64
	// Tightenings counts domain values removed by the pre-search
	// node-consistency propagation pass.
	Tightenings int64
	// Rounds counts objective-improvement rounds across Maximize /
	// MaximizeBinary runs (the OBJ_{n+1} > OBJ_n iterations of IV-L).
	Rounds int
	// Elapsed is the total wall-clock time spent solving.
	Elapsed time.Duration
	// PruneByConstraint attributes pruned subtrees (violated + interval
	// cuts combined) to the labeled model constraint that rejected them,
	// across all calls. Constraints added without a label are pooled
	// under "unlabeled". It answers the Sec. V-G question "which part of
	// the formulation does the cutting".
	PruneByConstraint map[string]int64
	// DepthNodes counts visited search nodes by depth (index = depth,
	// the final index is complete assignments), across all calls — the
	// search-depth histogram.
	DepthNodes []int64
	// Incumbents is the objective timeline of the most recent Maximize /
	// MaximizeBinary run: one entry per satisfiable round, in
	// strictly-improving objective order.
	Incumbents []Incumbent
}

// Incumbent is one objective improvement within a Maximize run.
type Incumbent struct {
	// Round is the improvement round that found the model (0 = the
	// initial "any model" round).
	Round int
	// Objective is the incumbent objective value.
	Objective int64
	// Nodes is the cumulative search-node count when the incumbent was
	// found.
	Nodes int64
	// Elapsed is the time since the Maximize call began.
	Elapsed time.Duration
}

// Solver decides Problems and maximizes objectives over them.
//
// Cancellation: every solve entry point has a ...Ctx variant taking the
// caller's context as an argument. The context is deliberately NOT
// stored on the struct — a solver reused across calls would carry a
// stale (possibly long-cancelled) context, silently aborting later
// solves. The search loop polls ctx between batches of nodes, so a
// cancelled SelectTilesCtx interrupts even a deep search; an interrupted
// SolveCtx returns (nil, false), which callers must disambiguate from
// UNSAT by checking ctx.Err().
type Solver struct {
	p     *Problem
	Stats Stats
	// Name tags the solver's live telemetry (incumbent publications,
	// flight events) with what is being optimized — typically the kernel
	// name. Optional; empty names are published as-is.
	Name string
	// domains are the solver's propagated copies of the problem domains
	// (built lazily on the first Solve; nil entries alias the problem's).
	domains [][]int64
	// descend makes the search try larger values first. The first Solve
	// of a Maximize run uses the problem's natural ascending order (a
	// Z3-like "any model"), subsequent improvement calls descend, which
	// mimics Z3's rapid convergence under OBJ > best constraints.
	descend bool
	// extra holds objective-improvement constraints added by Maximize.
	extra []Constraint
	// order, rank and consLast are the search skeleton every round of
	// the solver shares, built with domains on the first Solve: the
	// static variable order, each variable's position in it, and for
	// each base constraint the position of its last-assigned variable
	// (-1 for a constraint over constants only).
	order, rank, consLast []int
}

// NewSolver returns a solver for p.
func NewSolver(p *Problem) *Solver { return &Solver{p: p} }

// cancelPollMask: the search polls ctx.Err() once every
// (cancelPollMask+1) visited nodes — frequent enough to interrupt within
// microseconds, rare enough to stay off the hot path's profile.
const cancelPollMask = 1023

// propagate builds the solver's working domains by enforcing node
// consistency against the base constraints: a value is dropped when
// fixing its variable to it (others at their domain extremes) makes some
// constraint interval-infeasible. Dropped values cannot appear in any
// model, so the search result is unchanged; the search just skips them.
// Runs to a fixpoint, since shrinking one domain's extremes can expose
// removals in another.
func (s *Solver) propagate() {
	n := s.p.NumVars()
	s.domains = make([][]int64, n)
	for v, d := range s.p.domains {
		s.domains[v] = d
	}
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
			kept := d[:0:0]
			saveLo, saveHi := lo[v], hi[v]
			for _, val := range d {
				lo[v], hi[v] = val, val
				ok := true
				for _, c := range s.p.cons {
					if !c.feasible(lo, hi) {
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

// index builds the solver's search skeleton (see Solver.order). The
// static variable order is most-constrained (smallest declared domain)
// first. It uses the declared domains, not the propagated ones, so the
// visit order — and therefore tie-breaking among optimal models — is
// independent of propagation.
func (s *Solver) index() {
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
	s.consLast = make([]int, len(s.p.cons))
	for ci, c := range s.p.cons {
		s.consLast[ci] = lastRank(c, s.rank)
	}
}

// lastRank returns the order position of c's last-assigned variable, or
// -1 when c reads no variable.
func lastRank(c Constraint, rank []int) int {
	last := -1
	for _, v := range varsOf(c.L, c.R) {
		last = max(last, rank[v])
	}
	return last
}

// Solve searches for a model satisfying all constraints. ok is false when
// the problem is unsatisfiable.
func (s *Solver) Solve() (Model, bool) { return s.SolveCtx(context.Background()) }

// SolveCtx is Solve with the caller's context threaded through: the
// search polls ctx between node batches and aborts when it is cancelled.
// An aborted search returns (nil, false) exactly like UNSAT — callers
// that care must check ctx.Err() to tell the cases apart.
func (s *Solver) SolveCtx(ctx context.Context) (Model, bool) {
	if ctx.Done() != nil && ctx.Err() != nil {
		return nil, false
	}
	start := obs.Now()
	s.Stats.SolverCalls++
	mSolveCalls.Add(1)
	nodes0, viol0, intv0 := s.Stats.Nodes, s.Stats.PruneViolated, s.Stats.PruneInterval
	// Per-call attribution scratch, folded into Stats (and the batched
	// obs instruments) on the way out. pruneCounts is indexed like the
	// call's constraint slice; depthCounts by search depth.
	var (
		pruneCounts []int64
		pruneLabels []string
		depthCounts []int64
	)
	defer func() {
		s.Stats.Elapsed += obs.Now().Sub(start)
		mNodes.Add(s.Stats.Nodes - nodes0)
		mPruneViolated.Add(s.Stats.PruneViolated - viol0)
		mPruneInterval.Add(s.Stats.PruneInterval - intv0)
		for i, n := range pruneCounts {
			if n == 0 {
				continue
			}
			if s.Stats.PruneByConstraint == nil {
				s.Stats.PruneByConstraint = make(map[string]int64)
			}
			s.Stats.PruneByConstraint[pruneLabels[i]] += n
		}
		for d, n := range depthCounts {
			if n == 0 {
				continue
			}
			if len(s.Stats.DepthNodes) <= d {
				s.Stats.DepthNodes = append(s.Stats.DepthNodes, make([]int64, d+1-len(s.Stats.DepthNodes))...)
			}
			s.Stats.DepthNodes[d] += n
			mSearchDepth.ObserveN(float64(d), n)
		}
	}()

	n := s.p.NumVars()
	if s.domains == nil {
		t0 := s.Stats.Tightenings
		s.propagate()
		mTightenings.Add(s.Stats.Tightenings - t0)
		s.index()
	}
	for _, d := range s.domains {
		if len(d) == 0 {
			return nil, false
		}
	}
	order := s.order

	// Group constraints (by index, so prunes can be attributed) by the
	// highest-ordered variable they mention, so each is checked exactly
	// when it becomes fully assigned.
	all := make([]Constraint, 0, len(s.p.cons)+len(s.extra))
	all = append(all, s.p.cons...)
	all = append(all, s.extra...)
	pruneCounts = make([]int64, len(all))
	pruneLabels = make([]string, len(all))
	for i, c := range all {
		if c.Label != "" {
			pruneLabels[i] = c.Label
		} else {
			pruneLabels[i] = "unlabeled"
		}
	}
	depthCounts = make([]int64, n+1)
	byLast := make([][]int, n)
	var constOnly []int
	for ci, c := range all {
		var last int
		if ci < len(s.consLast) {
			last = s.consLast[ci]
		} else {
			last = lastRank(c, s.rank)
		}
		if last < 0 {
			constOnly = append(constOnly, ci)
			continue
		}
		byLast[last] = append(byLast[last], ci)
	}
	for _, ci := range constOnly {
		if !all[ci].Holds(nil) {
			return nil, false
		}
	}

	// Working bounds: assigned variables have lo==hi; unassigned use
	// domain extremes.
	lo := make([]int64, n)
	hi := make([]int64, n)
	for v, d := range s.domains {
		lo[v], hi[v] = d[0], d[len(d)-1]
	}
	model := make(Model, n)

	// Poll cancellation only for contexts that can be cancelled;
	// context.Background and friends have a nil Done channel.
	poll := ctx.Done() != nil
	aborted := false

	var dfs func(depth int) bool
	dfs = func(depth int) bool {
		s.Stats.Nodes++
		depthCounts[depth]++
		if poll && s.Stats.Nodes&cancelPollMask == 0 && ctx.Err() != nil {
			aborted = true
		}
		if aborted {
			return false
		}
		if depth == n {
			return true
		}
		v := Var(order[depth])
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
			// Check constraints fully assigned at this depth.
			for _, ci := range byLast[depth] {
				if !all[ci].Holds(model) {
					ok = false
					s.Stats.PruneViolated++
					pruneCounts[ci]++
					break
				}
			}
			// Interval-prune future constraints.
			if ok {
				for d := depth + 1; d < n && ok; d++ {
					for _, ci := range byLast[d] {
						if !all[ci].feasible(lo, hi) {
							ok = false
							s.Stats.PruneInterval++
							pruneCounts[ci]++
							break
						}
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
	out := make(Model, n)
	copy(out, model)
	return out, true
}

// solveRound runs one Solve under an "smt.round" span carrying the round
// index and, when satisfiable, the achieved objective value — the
// per-round telemetry backing the Sec. V-G measurements.
//
// It polls ctx before doing anything: a cancellation that lands between
// Maximize rounds (outside the node loop's cancelPollMask cadence) must
// not dispatch — or account for — one more full solve.
func (s *Solver) solveRound(ctx context.Context, obj Expr, round int) (Model, int64, bool) {
	if ctx.Err() != nil {
		return nil, 0, false
	}
	_, sp := obs.Start(ctx, "smt.round")
	sp.SetInt("round", int64(round))
	roundStart := obs.Now()
	m, sat := s.SolveCtx(ctx)
	mRoundSec.Observe(obs.Now().Sub(roundStart).Seconds())
	sp.SetBool("sat", sat)
	var val int64
	if sat {
		val = obj.Eval(m)
		sp.SetInt("objective", val)
	} else {
		mUnsat.Add(1)
	}
	sp.End()
	s.Stats.Rounds++
	mRounds.Add(1)
	return m, val, sat
}

// noteIncumbent records one objective improvement in the solver stats
// and publishes it to the live telemetry surfaces: the incumbent gauge,
// the obs live-progress state, and the flight recorder.
func (s *Solver) noteIncumbent(round int, val int64, start time.Time) {
	s.Stats.Incumbents = append(s.Stats.Incumbents, Incumbent{
		Round:     round,
		Objective: val,
		Nodes:     s.Stats.Nodes,
		Elapsed:   obs.Now().Sub(start),
	})
	mIncumbent.Set(float64(val))
	obs.SetIncumbent(s.Name, int64(round), val)
	flight.Default.Incumbent(s.Name, int64(round), val)
}

// Maximize implements the paper's iterative optimization (Sec. IV-L): find
// a first model, then repeatedly add OBJ > best and re-solve until the
// problem becomes unsatisfiable. It returns the best model found and its
// objective value; ok is false when even the base problem is UNSAT.
func (s *Solver) Maximize(obj Expr) (best Model, bestVal int64, ok bool) {
	return s.MaximizeCtx(context.Background(), obj)
}

// MaximizeCtx is Maximize with the caller's context threaded through:
// round spans nest under the caller's span, and cancellation interrupts
// both the current search and the improvement loop. A run cancelled
// after at least one satisfiable round returns the best model found so
// far with ok=true; callers wanting strict interruption semantics check
// ctx.Err() afterwards.
func (s *Solver) MaximizeCtx(ctx context.Context, obj Expr) (best Model, bestVal int64, ok bool) {
	start := obs.Now()
	s.Stats.Incumbents = nil
	s.extra = nil
	s.descend = false
	round := 0
	m, val, sat := s.solveRound(ctx, obj, round)
	if !sat {
		return nil, 0, false
	}
	best, bestVal = m, val
	s.noteIncumbent(round, bestVal, start)
	// Subsequent improvement rounds descend through domains, which makes
	// each round jump near the remaining maximum — the small
	// solver-call counts of Sec. V-G come from this behaviour.
	s.descend = true
	for ctx.Err() == nil {
		round++
		s.extra = []Constraint{{L: obj, Op: GT, R: C(bestVal), Label: "objective"}}
		m, val, sat := s.solveRound(ctx, obj, round)
		if !sat {
			break
		}
		best, bestVal = m, val
		s.noteIncumbent(round, bestVal, start)
	}
	s.extra = nil
	return best, bestVal, true
}

// Enumerate calls fn for every model of the problem until fn returns false
// or the space is exhausted. It returns the number of models visited.
// Intended for tests and small exploration studies.
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
	s.extra = nil
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
		s.extra = []Constraint{{L: obj, Op: GE, R: C(mid), Label: "objective"}}
		m, val, sat := s.solveRound(ctx, obj, round)
		if !sat {
			upper = mid - 1
			continue
		}
		best, bestVal = m, val
		loVal = bestVal
		s.noteIncumbent(round, bestVal, start)
	}
	s.extra = nil
	return best, bestVal, true
}
