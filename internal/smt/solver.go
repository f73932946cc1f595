package smt

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
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
	// Name tags the solver's live telemetry (incumbent publications on
	// /progress) with what is being optimized — typically the kernel
	// name. Optional; empty names are published as-is.
	Name string
	// domains are the solver's propagated copies of the problem domains
	// (built lazily on the first Solve; an entry aliases the problem's
	// domain, or one run of it, unless propagation punched a gap in it).
	domains [][]int64
	// descend makes the search try larger values first. The first Solve
	// of a Maximize run uses the problem's natural ascending order (a
	// Z3-like "any model"), subsequent improvement calls descend, which
	// mimics Z3's rapid convergence under OBJ > best constraints.
	descend bool
	// order and rank are the static variable order and each variable's
	// position in it, built with domains on the first Solve.
	order, rank []int
	// nonneg records that every declared domain value is non-negative
	// (always true for tile sizes), which lets check specialisation skip
	// the sign-aware interval products.
	nonneg bool
	// checks are the problem's constraints compiled for the search
	// (compile.go), in constraint order, followed by one slot for the
	// objective-improvement constraint obj op bound that Maximize adds
	// each round. objSet says an objective is attached to the slot,
	// objOn that the current round enforces it.
	checks        []check
	labels        []string
	objSet, objOn bool
	// seq[d] lists the checks a node at depth d decides, in the order
	// it decides them: the first exact[d] become fully assigned at d,
	// the rest are the interval lookahead over deeper checks reading the
	// node's variable (a lookahead not reading it passed at the parent
	// node already; the root runs every check).
	seq   [][]int32
	exact []int
	// Round scratch, reused across the rounds of a Maximize run.
	lo, hi, model            []int64
	pruneCounts, depthCounts []int64
}

// scratch holds the per-node specs of one running search (depth d's in
// depth[d]) or propagation pass. A solve needs them only while it runs,
// so they are pooled across solves and solvers.
type scratch struct {
	buf   []spec
	depth [][]spec
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns pooled scratch carved into one spec slice of
// capacity len(seq) per entry of seqs, or, for no seqs, holding room for
// n specs in buf.
func getScratch(seqs [][]int32, n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	for _, seq := range seqs {
		n += len(seq)
	}
	if cap(sc.buf) < n {
		sc.buf = make([]spec, n)
	}
	b := sc.buf[:n]
	sc.depth = sc.depth[:0]
	for _, seq := range seqs {
		sc.depth = append(sc.depth, b[:0:len(seq)])
		b = b[len(seq):]
	}
	return sc
}

// NewSolver returns a solver for p.
func NewSolver(p *Problem) *Solver { return &Solver{p: p} }

// cancelPollMask: the search polls ctx.Err() once every
// (cancelPollMask+1) visited nodes — frequent enough to interrupt within
// microseconds, rare enough to stay off the hot path's profile.
const cancelPollMask = 1023

// prepare builds what every Solve of the solver shares: the static
// variable order, the compiled constraints, the round scratch, and the
// propagated domains.
func (s *Solver) prepare() {
	s.index()
	s.addChecks()
	s.nonneg = true
	for _, d := range s.p.domains {
		if len(d) > 0 && d[0] < 0 {
			s.nonneg = false
		}
	}
	n := s.p.NumVars()
	buf := make([]int64, 4*n+1)
	s.lo, s.hi, s.model, s.depthCounts = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:]
	t0 := s.Stats.Tightenings
	s.propagate()
	mTightenings.Add(s.Stats.Tightenings - t0)
}

// addChecks compiles the constraints added since the last call, keeping
// the objective slot last.
func (s *Solver) addChecks() {
	var obj check
	nb := 0
	if len(s.checks) > 0 {
		nb = len(s.checks) - 1
		obj = s.checks[nb]
	}
	cons := s.p.cons[nb:]
	labels := slices.Grow(s.labels[:min(nb, len(s.labels))], len(cons)+1)
	for _, c := range cons {
		label := c.Label
		if label == "" {
			label = "unlabeled"
		}
		labels = append(labels, label)
	}
	s.checks = append(compile(s.checks[:nb], cons), obj)
	s.labels = append(labels, "objective")
	s.pruneCounts = make([]int64, len(s.checks))
	s.seq = nil
}

// attach compiles obj into the objective slot, not yet enforced: the
// slot holds the solver's own copy of obj op C(0), whose constant
// enforce rewrites in place.
func (s *Solver) attach(obj Expr) {
	if s.checks == nil {
		s.checks = []check{{}}
		s.labels = []string{"objective"}
	}
	s.checks = compile(s.checks[:len(s.checks)-1], []Constraint{{L: obj, R: C(0)}})
	s.objSet, s.objOn = true, false
	s.seq = nil
}

// enforce makes the following rounds require obj op bound of the
// attached objective: only the operator and the constant change.
func (s *Solver) enforce(op Op, bound int64) {
	k := &s.checks[len(s.checks)-1]
	k.op = op
	k.r.coef[0] = bound
	s.objOn = true
}

// propagate builds the solver's working domains by enforcing node
// consistency against the base constraints: a value is dropped when
// fixing its variable to it (others at their domain extremes) makes some
// constraint interval-infeasible. Dropped values cannot appear in any
// model, so the search result is unchanged; the search just skips them.
// Runs to a fixpoint, since shrinking one domain's extremes can expose
// removals in another. Each pass specialises every constraint to the
// variable being narrowed, so testing one value is O(1) per constraint.
func (s *Solver) propagate() {
	n := s.p.NumVars()
	s.domains = make([][]int64, n)
	copy(s.domains, s.p.domains)
	lo, hi := s.lo, s.hi
	base := make([]int32, len(s.checks)-1)
	for ci := range base {
		base[ci] = int32(ci)
	}
	sc := getScratch(nil, len(base))
	defer scratchPool.Put(sc)
	specs := sc.buf[:0]
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
			saveLo, saveHi := lo[v], hi[v]
			specs = s.specialize(specs[:0], base, 0, int32(v))
			// The kept values alias d while they are one contiguous run
			// [from, to), the common case of a monotone bound cutting a
			// domain end; a gap copies them out.
			from, to := -1, -1
			var kept []int64
			for i, val := range d {
				lo[v], hi[v] = val, val
				switch {
				case s.first(specs, val) != nil:
					s.Stats.Tightenings++
					changed = true
				case kept != nil:
					kept = append(kept, val)
				case from < 0:
					from, to = i, i+1
				case to == i:
					to++
				default:
					kept = append(append(make([]int64, 0, len(d)), d[from:to]...), val)
				}
			}
			lo[v], hi[v] = saveLo, saveHi
			switch {
			case kept != nil:
				s.domains[v] = kept
			case from < 0:
				s.domains[v] = nil
				return
			default:
				s.domains[v] = d[from:to]
			}
		}
	}
}

// index builds the static variable order: most-constrained (smallest
// declared domain) first. It uses the declared domains, not the
// propagated ones, so the visit order — and therefore tie-breaking
// among optimal models — is independent of propagation.
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
}

// lastRank returns the order position of k's last-assigned variable,
// or -1 when k reads no variable.
func (s *Solver) lastRank(k *check) int {
	last := -1
	for _, v := range k.vars {
		last = max(last, s.rank[v])
	}
	return last
}

// skeleton builds seq for the current constraints and objective slot.
func (s *Solver) skeleton() {
	n := s.p.NumVars()
	nc := len(s.checks)
	if !s.objSet {
		nc--
	}
	// A check joins the sequences once it has a variable: at depth
	// last[ci] as an exact check, above it as a lookahead.
	last := make([]int, nc)
	for ci := range last {
		last[ci] = s.lastRank(&s.checks[ci])
	}
	all := make([]int32, 0, n*nc)
	s.seq = make([][]int32, n)
	s.exact = make([]int, n)
	for d := 0; d < n; d++ {
		from := len(all)
		for ci, l := range last {
			if l == d {
				all = append(all, int32(ci))
			}
		}
		s.exact[d] = len(all) - from
		v := int32(s.order[d])
		for g := d + 1; g < n; g++ {
			for ci, l := range last {
				if l == g && (d == 0 || slices.Contains(s.checks[ci].vars, v)) {
					all = append(all, int32(ci))
				}
			}
		}
		s.seq[d] = all[from:len(all):len(all)]
	}
}

// Solve searches for a model satisfying all constraints. ok is false when
// the problem is unsatisfiable.
func (s *Solver) Solve() (Model, bool) { return s.SolveCtx(context.Background()) }

// search is the state of one SolveCtx's depth-first search.
type search struct {
	*Solver
	specs   [][]spec
	ctx     context.Context
	poll    bool
	aborted bool
	n       int
}

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
	defer s.fold(start, nodes0, viol0, intv0)

	if s.domains == nil {
		s.prepare()
	}
	if len(s.checks)-1 != len(s.p.cons) {
		s.addChecks()
	}
	if s.seq == nil {
		s.skeleton()
	}
	for _, d := range s.domains {
		if len(d) == 0 {
			return nil, false
		}
	}
	// Checks over constants only are decided before the search.
	for ci := range s.checks {
		k := &s.checks[ci]
		if ci == len(s.checks)-1 && !s.objOn {
			break
		}
		if len(k.vars) == 0 && !k.holds(nil) {
			return nil, false
		}
	}

	// Working bounds: assigned variables have lo==hi; unassigned use
	// domain extremes.
	for v, d := range s.domains {
		s.lo[v], s.hi[v] = d[0], d[len(d)-1]
	}
	sc := getScratch(s.seq, 0)
	defer scratchPool.Put(sc)
	// Poll cancellation only for contexts that can be cancelled;
	// context.Background and friends have a nil Done channel.
	st := &search{Solver: s, specs: sc.depth, ctx: ctx, poll: ctx.Done() != nil, n: s.p.NumVars()}
	if !st.dfs(0) {
		return nil, false
	}
	return append(Model(nil), s.model...), true
}

// fold adds one SolveCtx's attribution scratch to Stats and the batched
// obs instruments, and clears it for the next round.
func (s *Solver) fold(start time.Time, nodes0, viol0, intv0 int64) {
	s.Stats.Elapsed += obs.Now().Sub(start)
	mNodes.Add(s.Stats.Nodes - nodes0)
	mPruneViolated.Add(s.Stats.PruneViolated - viol0)
	mPruneInterval.Add(s.Stats.PruneInterval - intv0)
	for i, n := range s.pruneCounts {
		if n == 0 {
			continue
		}
		if s.Stats.PruneByConstraint == nil {
			s.Stats.PruneByConstraint = make(map[string]int64)
		}
		s.Stats.PruneByConstraint[s.labels[i]] += n
		s.pruneCounts[i] = 0
	}
	for d, n := range s.depthCounts {
		if n == 0 {
			continue
		}
		if len(s.Stats.DepthNodes) <= d {
			s.Stats.DepthNodes = append(s.Stats.DepthNodes, make([]int64, d+1-len(s.Stats.DepthNodes))...)
		}
		s.Stats.DepthNodes[d] += n
		mSearchDepth.ObserveN(float64(d), n)
		s.depthCounts[d] = 0
	}
}

// specialize appends the checks of seq, the first exact of them exact,
// specialised to variable x at the current bounds. A check whose outcome
// does not depend on x's value is decided once: dropped when it holds,
// and when it fails kept as the last spec, since no check after it is
// reached.
func (s *Solver) specialize(specs []spec, seq []int32, exact int, x int32) []spec {
	obj := int32(len(s.checks) - 1)
	dom := s.domains[x]
	neg, flat := dom[0] < 0, dom[0] < 0 && dom[len(dom)-1] >= 0
	for i, ci := range seq {
		if ci == obj && !s.objOn {
			continue
		}
		specs = append(specs, spec{})
		sp := &specs[len(specs)-1]
		if !sp.set(&s.checks[ci], x, s.lo, s.hi, s.nonneg, neg, flat, i < exact) {
			specs = specs[:len(specs)-1]
			continue
		}
		sp.ci = ci
		if sp.constant() {
			if sp.pass(0, nil, nil, nil, nil) {
				specs = specs[:len(specs)-1]
				continue
			}
			break
		}
	}
	return specs
}

func (st *search) dfs(depth int) bool {
	st.Stats.Nodes++
	st.depthCounts[depth]++
	if st.poll && st.Stats.Nodes&cancelPollMask == 0 && st.ctx.Err() != nil {
		st.aborted = true
	}
	if st.aborted {
		return false
	}
	if depth == st.n {
		return true
	}
	v := st.order[depth]
	dom := st.domains[v]
	specs := st.specialize(st.specs[depth][:0], st.seq[depth], st.exact[depth], int32(v))
	lo, hi, model := st.lo, st.hi, st.model
	saveLo, saveHi := lo[v], hi[v]
	try := func(i int) bool {
		val := dom[i]
		model[v] = val
		lo[v], hi[v] = val, val
		return st.dfs(depth + 1)
	}
	// When every spec passes one run of the domain, the values that pass
	// them all are one run too, [from, to): the search descends into
	// those, and the prunes of the values before and after are counted
	// a run at a time.
	if from, to, ok := runs(specs, dom); ok {
		first, rest := [2]int{0, from}, [2]int{to, len(dom)}
		if st.descend {
			first, rest = rest, first
		}
		st.reject(specs, first[0], first[1])
		for k := range to - from {
			i := from + k
			if st.descend {
				i = to - 1 - k
			}
			if try(i) {
				return true
			}
		}
		st.reject(specs, rest[0], rest[1])
		lo[v], hi[v] = saveLo, saveHi
		return false
	}
	for k := range dom {
		i := k
		if st.descend {
			i = len(dom) - 1 - k
		}
		val := dom[i]
		model[v] = val
		lo[v], hi[v] = val, val
		if sp := st.first(specs, val); sp != nil {
			st.prune(sp, 1)
			continue
		}
		if try(i) {
			return true
		}
	}
	lo[v], hi[v] = saveLo, saveHi
	return false
}

// first returns the first spec the value fails, or nil.
func (s *Solver) first(specs []spec, val int64) *spec {
	for k := range specs {
		if sp := &specs[k]; !sp.pass(val, &s.checks[sp.ci], s.model, s.lo, s.hi) {
			return sp
		}
	}
	return nil
}

// prune counts n values rejected by sp.
func (st *search) prune(sp *spec, n int64) {
	if sp.exact {
		st.Stats.PruneViolated += n
	} else {
		st.Stats.PruneInterval += n
	}
	st.pruneCounts[sp.ci] += n
}

// runs finds each spec's pass run of dom and returns the run passing
// them all (from == to when none does); ok is false when some spec's
// pass set is not a run.
func runs(specs []spec, dom []int64) (from, to int, ok bool) {
	from, to = 0, len(dom)
	for k := range specs {
		sp := &specs[k]
		if !sp.passRange(dom) {
			return 0, 0, false
		}
		from, to = max(from, sp.in0), min(to, sp.in1)
	}
	return from, max(from, to), true
}

// reject counts the prunes of the values at indices [i, j), none of
// which passes every spec: each is charged to the first spec it fails.
func (st *search) reject(specs []spec, i, j int) {
	for k := 0; i < j && k < len(specs); k++ {
		sp := &specs[k]
		in0, in1 := max(i, sp.in0), min(j, sp.in1)
		if in0 >= in1 {
			st.prune(sp, int64(j-i))
			return
		}
		st.prune(sp, int64(j-i-(in1-in0)))
		i, j = in0, in1
	}
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
// and publishes it to the live telemetry surfaces: the incumbent gauge
// and the obs live-progress state.
func (s *Solver) noteIncumbent(round int, val int64, start time.Time) {
	s.Stats.Incumbents = append(s.Stats.Incumbents, Incumbent{
		Round:     round,
		Objective: val,
		Nodes:     s.Stats.Nodes,
		Elapsed:   obs.Now().Sub(start),
	})
	mIncumbent.Set(float64(val))
	obs.SetIncumbent(s.Name, int64(round), val)
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
	s.attach(obj)
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
		s.enforce(GT, bestVal)
		m, val, sat := s.solveRound(ctx, obj, round)
		if !sat {
			break
		}
		best, bestVal = m, val
		s.noteIncumbent(round, bestVal, start)
	}
	s.objOn = false
	return best, bestVal, true
}
