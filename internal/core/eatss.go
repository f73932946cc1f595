// Package core implements EATSS — the Energy-Aware Tile Size Selection
// scheme that is the paper's contribution. From an affine kernel, a GPU
// description, and the model options (shared-memory split factor, warp
// fraction, precision), it derives the non-linear integer formulation of
// Sec. IV:
//
//   - tile variables bounded by [WAF, min(T_P_B, N)] in warp-aligned steps
//     (IV-B),
//   - per-reference data-tile volumes (IV-C),
//   - the CMA loop l_s1 (IV-D) and the L1/shared reference split (IV-E),
//   - the thread-block size estimate B_size (IV-F),
//   - the register-per-SM bound REG_SM = B_size x refs x FP_factor
//     (IV-G, IV-I),
//   - L1/shared/L2 capacity limits under the split factor (IV-H, IV-J),
//   - the objective OBJ = prod(parallel T_i) + sum(H_i x T_i) (IV-K),
//
// and solves it with the iterative improvement loop of IV-L
// (OBJ_{n+1} > OBJ_n until UNSAT) on the finite-domain solver.
//
// The constraint system (IV-B..IV-J) is not written out here: it is the
// Program's feas.Region for the Options, memoized on the analysis
// artifact and lowered onto the solver by Region.Lower. core adds the
// per-nest model metadata (NestModel) and the IV-K objective, and
// Explain reads the same region's predicates at the selected tiles.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/feas"
	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/verify"
)

// Telemetry instruments: selection outcomes and which constraint kinds
// the model generator emits (Sec. IV-G..IV-J), so regressions in the
// formulation are visible without dumping the model.
var (
	mSelections           = obs.NewCounter("core.selections")
	mSelectUnsat          = obs.NewCounter("core.select_unsat")
	mConsTotal            = obs.NewCounter("core.constraints")
	mConsRegister         = obs.NewCounter("core.cons.register")
	mConsShared           = obs.NewCounter("core.cons.capacity_shared")
	mConsL1               = obs.NewCounter("core.cons.capacity_l1")
	mConsL2               = obs.NewCounter("core.cons.capacity_l2")
	mShrinkPasses         = obs.NewCounter("core.shrink_passes")
	mSolverCallsPerSelect = obs.NewHistogram("core.solver_calls_per_select", 2, 4, 8, 16, 32)
)

// Options configures one EATSS model generation.
type Options struct {
	// SplitFactor divides the combined L1+shared pool (Sec. IV-J):
	// 0 gives everything to L1, 1.0 everything to shared memory.
	// Typical values: 0, 0.25, 0.5, 0.67, 0.75, 1.0.
	SplitFactor float64
	// WarpFraction scales the warp-alignment factor (Sec. IV-B):
	// tile sizes must be multiples of WarpFraction x T_P_W.
	// 1.0 aligns to full warps (32); 0.5 to 16; 0.125 to 4 — needed for
	// high-dimensional kernels (Sec. V-D).
	WarpFraction float64
	// Precision selects FP32/FP64 (Sec. IV-I).
	Precision affine.Precision
	// ProblemSizeAware tightens tile upper bounds to min(T_P_B, N)
	// using the kernel's parameter bindings (Sec. IV-B). On in
	// DefaultOptions and SelectSplit.
	ProblemSizeAware bool
	// Verify selects independent certification of each selection
	// (internal/verify): the solver's model is replayed in arbitrary
	// precision and the resource bounds are re-derived without the
	// solver. A failed certification is a hard error.
	Verify verify.Mode
}

// DefaultOptions mirrors the paper's GA100 matmul walkthrough: 50% split,
// half-warp alignment, double precision.
func DefaultOptions() Options {
	return Options{SplitFactor: 0.5, WarpFraction: 0.5, Precision: affine.FP64, ProblemSizeAware: true}
}

// WarpAlignmentFactor returns the tile-size step (Sec. IV-B).
func (o Options) WarpAlignmentFactor(g *arch.GPU) int64 {
	waf := int64(o.WarpFraction * float64(g.ThreadsPerWarp))
	if waf < 1 {
		waf = 1
	}
	return waf
}

// SharedSplits are the three shared-memory levels the paper generates
// configurations for (Sec. V-B: 0%, 50%, 67%): with WarpFractions, the
// (split x warp-fraction) sibling grid SelectBest, the linter and the
// autotuners explore.
var SharedSplits = []float64{0.0, 0.5, 0.67}

// WarpFractions are tried coarsest-first; finer fractions unlock
// high-dimensional kernels (Sec. V-D).
var WarpFractions = []float64{0.5, 0.25, 0.125}

// NestModel records how one nest contributed to the formulation.
type NestModel struct {
	Nest     string
	CMALoop  string
	Parallel []string
	// L1Arrays / SharedArrays is the Sec. IV-E reference split.
	L1Arrays     []string
	SharedArrays []string
	// H holds the final objective weights per loop (Sec. IV-K).
	H map[string]int64
	// Refs is the distinct-cache-line reference count (Sec. IV-G).
	Refs int64
}

// Selection is the result of one EATSS solve.
type Selection struct {
	Kernel string
	GPU    string
	Opts   Options

	// Tiles maps loop name -> selected tile size.
	Tiles map[string]int64
	// Objective is the achieved objective value.
	Objective int64
	// Nests documents the per-nest model structure.
	Nests []NestModel
	// SolverCalls and SolveTime reproduce the Sec. V-G measurements.
	// For a formulation that splits into independent variable groups,
	// SolverCalls sums the calls of every group.
	SolverCalls int
	SolveTime   time.Duration
	// Search is the main solve's deep search telemetry: per-constraint
	// prune attribution, the search-depth histogram and the incumbent
	// objective timeline of the Maximize climb (Sec. IV-L / V-G),
	// summed over the components. It is snapshotted before the
	// secondary shrink pass, whose calls appear only in SolverCalls
	// above.
	Search smt.Stats
	// Witness is the solved problem plus the final model, kept so an
	// independent checker (internal/verify, eatss.Certify) can re-decide
	// every constraint without re-running the search.
	Witness *smt.Witness

	// problem and obj are the generated formulation, rendered on demand
	// by Model.
	problem *smt.Problem
	obj     smt.Expr
}

// Model renders the generated formulation in readable form: the
// declarations, the constraints and the objective, without the shrink
// pass's objective pin that the witness problem carries.
func (s *Selection) Model() string {
	if s.problem == nil {
		return ""
	}
	return s.problem.String() + "(maximize " + s.obj.Render(s.problem) + ")\n"
}

// SelectSplit solves one shared-memory split with the warp-fraction
// fallback of Sec. V-D: the fractions coarsest first until one
// formulation is satisfiable. A fraction whose feasibility region is
// statically empty is skipped without the solver; the region is the
// formulation the solve would lower, so only the solver time changes.
// staticSkips counts the skipped fractions. When no fraction is
// satisfiable, err is the last solver error (or a static-emptiness error
// when every fraction was skipped); a cancelled ctx stops the fallback at
// the interrupted solve.
func SelectSplit(ctx context.Context, prog *analysis.Program, g *arch.GPU, split float64, prec affine.Precision) (sel *Selection, staticSkips int, err error) {
	for _, wf := range WarpFractions {
		opts := Options{SplitFactor: split, WarpFraction: wf, Precision: prec, ProblemSizeAware: true}
		if feas.Cached(prog, g, modelConfig(opts)).Empty != nil {
			staticSkips++
			continue
		}
		sel, err = SelectTilesAnalyzed(ctx, prog, g, opts)
		if err == nil || ctx.Err() != nil {
			return sel, staticSkips, err
		}
	}
	if err == nil {
		err = fmt.Errorf("core: formulation for %s on %s at split %.2f is statically empty at every warp fraction",
			prog.Kernel.Name, g.Name, split)
	}
	return nil, staticSkips, err
}

// formulation is one generated Sec. IV model, before solving.
type formulation struct {
	p *smt.Problem
	// names are the kernel's loop names, sorted; vars[name] is T_name.
	names []string
	vars  map[string]smt.Var
	obj   smt.Expr
	nests []NestModel
}

// modelConfig is the feas.Config whose region is the formulation for
// opts: every constraint family on, the rest as the options choose.
func modelConfig(opts Options) feas.Config {
	return feas.Config{
		Precision:        opts.Precision,
		SplitFactor:      opts.SplitFactor,
		WarpFraction:     opts.WarpFraction,
		ProblemSizeAware: opts.ProblemSizeAware,
		Capacity:         true,
	}
}

// consCounters counts emitted constraints per Sec. IV label.
var consCounters = map[string]*obs.Counter{
	"register":        mConsRegister,
	"shared-capacity": mConsShared,
	"l1-capacity":     mConsL1,
	"l2-share":        mConsL2,
}

// formulate generates the Sec. IV formulation from a precomputed
// analysis artifact. The constraint system is the program's feas.Region
// for opts (memoized on prog), lowered onto a fresh smt.Problem; what
// formulate adds is the per-nest model metadata and the IV-K objective.
func formulate(prog *analysis.Program, g *arch.GPU, opts Options) (*formulation, error) {
	waf := opts.WarpAlignmentFactor(g)
	region := feas.Cached(prog, g, modelConfig(opts))
	f := &formulation{}
	f.p, f.vars = region.Lower()
	for _, b := range region.Bounds {
		f.names = append(f.names, b.Name)
	}
	for _, pr := range region.Preds {
		consCounters[pr.Label].Add(1)
	}

	// --- per-nest metadata and objective terms ---
	var objTerms []smt.Expr
	seenParallelProd := make(map[string]bool)
	analysis.CountReuseHits(len(prog.Nests))
	for _, na := range prog.Nests {
		nest := na.Nest
		reuse := na.Reuse

		nm := NestModel{
			Nest:    nest.Name,
			CMALoop: reuse.CMALoop,
			H:       make(map[string]int64),
			Refs:    reuse.DistinctLineRefs,
		}

		// IV-F: up to the first three parallel loops define B_size
		// (precomputed by the analysis).
		parallel := append([]string(nil), na.Parallel...)
		nm.Parallel = parallel
		if len(parallel) == 0 {
			return nil, fmt.Errorf("core: nest %q has no parallel loops", nest.Name)
		}

		// IV-E: the L1/shared reference split the capacity predicates
		// were built from (a zero split cache-maps every reference).
		for _, av := range na.Arrays {
			if len(av.Iters) == 0 {
				continue // scalar: no capacity term
			}
			if av.L1 || opts.SplitFactor == 0 {
				nm.L1Arrays = append(nm.L1Arrays, av.Array)
			} else {
				nm.SharedArrays = append(nm.SharedArrays, av.Array)
			}
		}

		// IV-K: objective weights — the precomputed skeleton scaled by
		// the warp-alignment factor on the CMA loop.
		for _, l := range nest.Loops {
			h, ok := na.HSkeleton[l.Name]
			if !ok {
				continue
			}
			if h > 0 && l.Name == reuse.CMALoop {
				h *= waf
			}
			nm.H[l.Name] = h
			if h > 0 {
				objTerms = append(objTerms, smt.Scale(h, smt.V(f.vars[l.Name])))
			}
		}

		// Parallelism term (B_size), once per distinct parallel-loop set.
		key := strings.Join(parallel, ",")
		if !seenParallelProd[key] {
			seenParallelProd[key] = true
			factors := make([]smt.Expr, len(parallel))
			for i, p := range parallel {
				factors[i] = smt.V(f.vars[p])
			}
			objTerms = append(objTerms, smt.Mul(factors...))
		}

		f.nests = append(f.nests, nm)
	}
	f.obj = smt.Sum(objTerms...)
	return f, nil
}

// objectives returns the main objective and, when some tile is absent
// from it, the secondary shrink objective (Sec. IV-G's preference):
// among objective-optimal solutions, shrink the tiles that do not appear
// in the objective — serial loops carrying only temporal reuse — to cut
// liveness.
func (f *formulation) objectives() []smt.Expr {
	inObj := f.obj.Vars()
	var shrink []smt.Expr
	for _, name := range f.names {
		if !slices.Contains(inObj, f.vars[name]) {
			shrink = append(shrink, smt.Scale(-1, smt.V(f.vars[name])))
		}
	}
	if len(shrink) == 0 {
		return []smt.Expr{f.obj}
	}
	return []smt.Expr{f.obj, smt.Sum(shrink...)}
}

// solveParts runs MaximizeParts over one solver per part, each part
// maximizing its share of the objective at index k, and returns the
// merged per-part models and the summed solver statistics.
func solveParts(ctx context.Context, name string, parts []smt.Part, k int) ([]smt.Model, []int64, bool, smt.Stats) {
	solvers := make([]*smt.Solver, len(parts))
	objs := make([]smt.Expr, len(parts))
	stats := make([]smt.Stats, len(parts))
	for c, pt := range parts {
		solvers[c] = smt.NewSolver(pt.Problem)
		solvers[c].Name = name
		objs[c] = pt.Objs[k]
	}
	models, vals, ok := smt.MaximizeParts(ctx, solvers, objs)
	for c, s := range solvers {
		stats[c] = s.Stats
	}
	return models, vals, ok, smt.MergeStats(stats)
}

// SelectTilesAnalyzed builds and solves the EATSS formulation for a
// kernel from its precomputed analysis artifact. It returns an error when
// the formulation is unsatisfiable (e.g. the warp fraction is too coarse
// for the kernel's resource envelope — Sec. V-D). The model generation splits into the
// tile-independent skeleton carried by prog (reuse, classification, H
// skeletons, extents) and the cheap per-Options instantiation done here
// (warp-alignment steps, the L1/shared capacity split, precision
// scaling), so e.g. SelectBest's 3 shared-splits x 3 warp-fractions
// reuse one analysis instead of nine re-derivations.
//
// A formulation whose tile variables fall into independent groups (no
// constraint or objective term spans two of them) is solved one group
// at a time, with the merge rule of smt.MaximizeParts, so the selection
// is the one a single search over the whole formulation returns.
func SelectTilesAnalyzed(ctx context.Context, prog *analysis.Program, g *arch.GPU, opts Options) (*Selection, error) {
	start := obs.Now()
	k := prog.Kernel
	if opts.WarpFraction == 0 {
		opts.WarpFraction = 1.0
	}
	ctx, root := obs.Start(ctx, "core.select_tiles")
	defer root.End()
	root.SetStr("kernel", k.Name)
	root.SetStr("gpu", g.Name)
	root.SetFloat("split", opts.SplitFactor)
	root.SetFloat("warpfrac", opts.WarpFraction)
	_, gen := obs.Start(ctx, "core.model_gen")
	f, err := formulate(prog, g, opts)
	if err != nil {
		gen.End()
		root.SetStr("error", "no parallel loops")
		return nil, err
	}
	p := f.p
	sel := &Selection{
		Kernel:  k.Name,
		GPU:     g.Name,
		Opts:    opts,
		Tiles:   make(map[string]int64, len(f.names)),
		Nests:   f.nests,
		problem: p,
		obj:     f.obj,
	}
	gen.SetInt("vars", int64(p.NumVars()))
	gen.SetInt("constraints", int64(p.Constraints()))
	gen.End()
	mConsTotal.Add(int64(p.Constraints()))

	// --- IV-L: iterative maximization, one run per independent part ---
	sctx, solve := obs.Start(ctx, "core.solve")
	objs := f.objectives()
	parts := p.Partition(objs...)
	solve.SetInt("components", int64(len(parts)))
	models, vals, ok, search := solveParts(sctx, k.Name, parts, 0)
	if err := ctx.Err(); err != nil {
		// Cancelled mid-solve: the search was interrupted, so an
		// unsatisfiable outcome here is indistinguishable from an
		// unfinished one — report the interruption, not UNSAT.
		solve.SetBool("canceled", true)
		solve.End()
		return nil, fmt.Errorf("core: tile selection for %s on %s interrupted: %w", k.Name, g.Name, err)
	}
	if !ok {
		solve.SetBool("sat", false)
		solve.End()
		root.SetBool("unsat", true)
		mSelectUnsat.Add(1)
		return nil, fmt.Errorf("core: formulation for %s on %s is unsatisfiable (warp fraction %.3f too coarse?)",
			k.Name, g.Name, opts.WarpFraction)
	}
	var best int64
	for _, v := range vals {
		best += v
	}
	solve.SetInt("objective", best)
	solve.SetInt("solver_calls", int64(search.SolverCalls))
	solve.SetInt("nodes", search.Nodes)
	solve.End()
	sel.Objective = best
	sel.Search = search
	sel.SolverCalls = search.SolverCalls

	// Secondary pass: among objective-optimal solutions, shrink the
	// tiles the objective leaves out. Pinning obj == best pins every
	// part to its own optimum, since no part can exceed it.
	witness := p
	if len(objs) > 1 {
		shctx, shr := obs.Start(ctx, "core.shrink")
		mShrinkPasses.Add(1)
		witness = p.Clone()
		witness.RequireEQ(f.obj, smt.C(best))
		pinned := make([]smt.Part, len(parts))
		for c, pt := range parts {
			if len(parts) == 1 {
				pt.Problem = witness
			} else {
				pt.Problem = pt.Problem.Clone()
				pt.Problem.RequireEQ(pt.Objs[0], smt.C(vals[c]))
			}
			pinned[c] = pt
		}
		m2, _, ok2, st2 := solveParts(shctx, k.Name+"/shrink", pinned, 1)
		if ok2 && ctx.Err() == nil {
			models = m2
		}
		sel.SolverCalls += st2.SolverCalls
		shr.SetInt("solver_calls", int64(st2.SolverCalls))
		shr.End()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: tile selection for %s on %s interrupted: %w", k.Name, g.Name, err)
		}
	}

	model := smt.Merge(parts, models)
	for _, name := range f.names {
		sel.Tiles[name] = model.Value(f.vars[name])
	}
	wvars := make(map[string]smt.Var, len(f.vars))
	for name, v := range f.vars {
		wvars["T_"+name] = v
	}
	sel.Witness = &smt.Witness{Problem: witness, Model: model, Vars: wvars}
	sel.SolveTime = obs.Now().Sub(start)

	// Only Sample mode reads the key, so only it pays for formatting one.
	if v := opts.Verify; v == verify.All || v == verify.Sample && v.ShouldVerify(verifyKey(k.Name, g.Name, opts)) {
		if err := verify.CertifySelection(selectionFacts(prog, g, sel)); err != nil {
			root.SetStr("verify_error", err.Error())
			mVerifyFailures.Add(1)
			return nil, fmt.Errorf("core: selection for %s on %s failed certification: %w", k.Name, g.Name, err)
		}
		mVerified.Add(1)
	}
	mSelections.Add(1)
	mSolverCallsPerSelect.Observe(float64(sel.SolverCalls))
	root.SetInt("objective", sel.Objective)
	root.SetInt("solver_calls", int64(sel.SolverCalls))
	return sel, nil
}

// String summarizes a selection.
func (s *Selection) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EATSS %s on %s (split=%.2f, warpfrac=%.3f, %s): obj=%d, %d solver calls, %s\n",
		s.Kernel, s.GPU, s.Opts.SplitFactor, s.Opts.WarpFraction, s.Opts.Precision,
		s.Objective, s.SolverCalls, s.SolveTime.Round(time.Microsecond))
	var names []string
	for name := range s.Tiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  T_%s = %d\n", name, s.Tiles[name])
	}
	return b.String()
}
