package eatss

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/lint"
	"repro/internal/ppcg"
	"repro/internal/symbolic"
)

// Program is the staged-compilation artifact: everything about a
// (kernel, problem-sizes) pair that does not depend on tile sizes or
// model options, computed once by Analyze and reused by every
// downstream stage. Solving the EATSS model, compiling a tile choice,
// simulating it, sweeping a tile space and explaining a selection all
// consume the same dependence/reuse analysis; a Program performs it
// once and every operation runs as one of its methods. The package-level
// SelectTiles and ExploreSpaceOpt are one-shot conveniences that call
// Analyze first.
//
// A Program is immutable and safe for concurrent use — the sweep
// engine shares one Program across all of its workers. Its Fingerprint
// identifies the (kernel, params) pair and keys the evaluation cache;
// rebuild the Program whenever the kernel or params change.
type Program struct {
	prog *analysis.Program
}

// Analyze stages a kernel: it validates the kernel, resolves the
// problem sizes (params override the kernel's defaults; nil keeps
// them), and computes the tile-independent analysis artifact the
// Program's methods reuse.
func Analyze(k *AffineKernel, params map[string]int64) (*Program, error) {
	return AnalyzeCtx(context.Background(), k, params)
}

// AnalyzeCtx is Analyze with the caller's context threaded through, so
// the "analysis.analyze" span nests under the caller's obs span.
func AnalyzeCtx(ctx context.Context, k *AffineKernel, params map[string]int64) (*Program, error) {
	if k == nil {
		return nil, fmt.Errorf("eatss: Analyze: nil kernel")
	}
	kk := k
	if params != nil {
		kk = k.WithParams(params)
	}
	if err := kk.Validate(); err != nil {
		return nil, fmt.Errorf("eatss: Analyze %s: %w", k.Name, err)
	}
	return &Program{prog: analysis.AnalyzeCtx(ctx, kk, nil)}, nil
}

// Kernel returns the analyzed kernel (with any Analyze params merged
// in). Callers must not mutate it; a Program assumes its kernel is
// frozen.
func (p *Program) Kernel() *AffineKernel { return p.prog.Kernel }

// FingerprintKernel computes the fingerprint a Program built by
// Analyze(k, params) would report, without staging the analysis — a
// hash of the kernel's canonical DSL text and the resolved problem
// sizes. Services caching Program artifacts (cmd/eatssd) use it to
// probe their cache before paying for the analysis; the invariant
// FingerprintKernel(k, params) == must-Analyze(k, params).Fingerprint()
// is pinned by a test.
func FingerprintKernel(k *AffineKernel, params map[string]int64) string {
	kk := k
	if params != nil {
		kk = k.WithParams(params)
	}
	return analysis.Fingerprint(kk, nil)
}

// Params returns a copy of the resolved problem sizes the Program was
// analyzed under.
func (p *Program) Params() map[string]int64 {
	out := make(map[string]int64, len(p.prog.Params))
	for name, v := range p.prog.Params {
		out[name] = v
	}
	return out
}

// Fingerprint identifies the (kernel, params) pair. Two Programs with
// equal fingerprints produce identical pipeline results; any kernel or
// params change yields a different fingerprint. It is the evaluation
// cache's key prefix.
func (p *Program) Fingerprint() string { return p.prog.Fingerprint() }

// SelectTiles runs the EATSS model generator and solver (Sec. IV)
// against the staged analysis.
func (p *Program) SelectTiles(g *GPU, opts Options) (*Selection, error) {
	return p.SelectTilesCtx(context.Background(), g, opts)
}

// SelectTilesCtx is SelectTiles with the caller's context threaded
// through for observability.
func (p *Program) SelectTilesCtx(ctx context.Context, g *GPU, opts Options) (*Selection, error) {
	return core.SelectTilesAnalyzed(ctx, p.prog, g, opts)
}

// SelectSplit generates the EATSS configuration for one shared-memory
// split, the way SelectBestEval does for each of SharedSplits: the warp
// fractions coarsest first until one formulation is satisfiable
// (Sec. V-D), skipping the fractions whose feasibility region is
// statically empty without calling the solver. It returns the last
// solver error when no fraction is satisfiable.
func (p *Program) SelectSplit(ctx context.Context, g *GPU, split float64, prec Precision) (*Selection, error) {
	sel, _, err := core.SelectSplit(ctx, p.prog, g, split, prec)
	return sel, err
}

// Lint diagnoses the Program's kernel under its resolved problem sizes
// (see the package-level Lint). A validated kernel can still carry
// Warning-severity findings — dead arrays, uncoalescable access
// patterns, empty domains under these problem sizes.
func (p *Program) Lint() []Diag { return lint.Lint(p.prog.Kernel, p.prog.Params) }

// CompileCtx maps a tile choice onto the GPU (the PPCG step), reusing
// the staged analysis. cfg.Params may override the Program's problem
// sizes for this compile only (the analysis is size-independent); nil
// keeps them.
func (p *Program) CompileCtx(ctx context.Context, g *GPU, tiles map[string]int64, cfg RunConfig) (*MappedKernel, error) {
	return compileAnalyzed(ctx, p.prog, g, tiles, cfg)
}

// RunCtx evaluates one tile configuration: one enabled call records a
// compile span and a simulate span under the caller's. It honours
// cfg.Evaluator: under EvalSymbolic the point is evaluated through the
// Program's closed-form plan when one derives. The EvalInfo attributes
// the evaluation to a backend, so serving layers can flag residual
// fallbacks per request.
func (p *Program) RunCtx(ctx context.Context, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, EvalInfo, error) {
	return evalAnalyzed(ctx, p.prog, g, tiles, cfg)
}

// EvalInfo attributes one evaluation to a backend.
type EvalInfo struct {
	// Symbolic: the point was evaluated through the closed-form plan.
	Symbolic bool
	// Residual: a symbolic evaluator was requested but the point fell
	// back to compile+simulate (unsupported config, underivable program,
	// or a per-point residual).
	Residual bool
}

// SelectBestEval runs the paper's full protocol with the staged
// analysis shared across every solve and evaluation: one EATSS
// configuration per shared-memory split (SelectSplit), each evaluated
// under eval, the best kept by performance-per-Watt. The splits run
// concurrently and are merged in split order, so the outcome is the one
// a serial loop over SharedSplits gives. One enabled run records an
// "eatss.select_best" span with one "eatss.candidate" child per split
// (the children overlap in time). A ctx cancelled before the protocol
// finishes yields an error wrapping ctx.Err(), never a Best built from
// the splits that completed.
func (p *Program) SelectBestEval(ctx context.Context, g *GPU, prec Precision, eval Evaluator) (*Best, error) {
	return selectBestAnalyzed(ctx, p.prog, g, prec, eval)
}

// ExploreSpaceOpt evaluates every tile configuration in the space (the
// paper's exhaustive exploration studies, Secs. II and V), sharing the
// staged analysis across the sweep's worker pool. See the package-level
// ExploreSpaceOpt for the sweep contracts.
func (p *Program) ExploreSpaceOpt(ctx context.Context, g *GPU, space []map[string]int64, cfg RunConfig, opt SweepOptions) ([]SpacePoint, ExploreStats) {
	return exploreAnalyzed(ctx, p.prog, g, space, cfg, opt)
}

// Explain evaluates a selection's resource constraints under its chosen
// tiles from the staged analysis and reports usage and binding
// constraints (the paper's walkthrough arithmetic: e.g. gemm's L1
// capacity binds exactly at (Ti+Tk)*Tj = M_L1). The string is a
// rendered table.
func (p *Program) Explain(g *GPU, sel *Selection) ([]ConstraintSlack, string) {
	return core.ExplainAnalyzed(p.prog, g, sel)
}

// compileAnalyzed is the shared compile path: PPCG mapping from the
// staged analysis, then the optional time-tiling and register-tiling
// extensions. Nests where an extension is infeasible keep the plain
// mapping and are counted in the MappedKernel's fallback fields — they
// are expected outcomes on non-stencil or too-small-tile nests, not
// errors, but callers inspecting why a requested extension had no
// effect need the count (cmd/eatss -summary prints it).
func compileAnalyzed(ctx context.Context, prog *analysis.Program, g *GPU, tiles map[string]int64, cfg RunConfig) (*MappedKernel, error) {
	// Poll the context before starting: sweeps with per-request deadlines
	// (and the eatssd daemon) rely on a cancelled evaluation failing fast
	// with a context error instead of running to completion.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("eatss: compile %s on %s: %w", prog.Kernel.Name, g.Name, err)
	}
	mk, err := ppcg.CompileAnalyzed(ctx, prog, cfg.Params, tiles, g, codegen.Options{
		UseShared:   cfg.UseShared,
		SharedQuota: cfg.SharedQuota,
		Precision:   cfg.Precision,
	})
	if err != nil {
		return nil, err
	}
	if cfg.TimeTileFuse > 1 {
		for _, mn := range mk.Nests {
			if err := mn.ApplyTimeTiling(cfg.TimeTileFuse); err != nil {
				mk.TimeTileFallbacks++
			}
		}
	}
	if cfg.RegTile > 1 {
		for _, mn := range mk.Nests {
			if err := mn.ApplyRegisterTiling(cfg.RegTile, g.RegsPerThread); err != nil {
				mk.RegTileFallbacks++
			}
		}
	}
	return mk, nil
}

// runAnalyzed compiles and simulates one tile configuration from a
// staged analysis.
func runAnalyzed(ctx context.Context, prog *analysis.Program, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, error) {
	mk, err := compileAnalyzed(ctx, prog, g, tiles, cfg)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("eatss: simulate %s on %s: %w", prog.Kernel.Name, g.Name, err)
	}
	return gpusim.SimulateCtx(ctx, mk, g), nil
}

// symbolicSupported reports whether a RunConfig is inside the
// closed-form domain: the mapping extensions (time-tile fusion,
// register micro-tiles) restructure the launch in ways the plan does
// not model.
func symbolicSupported(cfg RunConfig) bool {
	return cfg.TimeTileFuse <= 1 && cfg.RegTile <= 1
}

// planOrErr memoizes a Derive outcome — failures too, so an underivable
// program pays the attempt once, not once per point.
type planOrErr struct {
	plan *symbolic.Plan
	err  error
}

// planKey keys one memoized closed-form plan: the whole GPU description
// and the RunConfig fields Derive reads, params rendered canonically.
type planKey struct {
	gpu         GPU
	useShared   bool
	sharedQuota int64
	prec        Precision
	params      string
}

// symbolicPlan returns the Program's closed-form plan for (g, cfg),
// deriving it on first use and staging it on the analysis artifact the
// way the per-nest skeletons are staged: every sweep worker and every
// later call sharing the Program shares the plan.
func symbolicPlan(prog *analysis.Program, g *GPU, cfg RunConfig) (*symbolic.Plan, error) {
	key := planKey{*g, cfg.UseShared, cfg.SharedQuota, cfg.Precision, tileKey(cfg.Params)}
	v := prog.Memo(key, func() any {
		plan, err := symbolic.Derive(prog, g, symbolic.Config{
			UseShared:   cfg.UseShared,
			SharedQuota: cfg.SharedQuota,
			Precision:   cfg.Precision,
		}, cfg.Params)
		return planOrErr{plan: plan, err: err}
	}).(planOrErr)
	return v.plan, v.err
}

// evalAnalyzed is the evaluation seam every consumer of "what does this
// tile point cost" goes through (sweep workers, SelectBest candidates,
// RunCtx, autotune probes, the eatssd service): it dispatches between the
// closed-form symbolic backend and per-point compile+simulate according
// to cfg.Evaluator, with the simulator as the residual fallback.
func evalAnalyzed(ctx context.Context, prog *analysis.Program, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, EvalInfo, error) {
	if cfg.Evaluator == EvalSimulate || !symbolicSupported(cfg) {
		res, err := runAnalyzed(ctx, prog, g, tiles, cfg)
		// A symbolic request routed to the simulator is a residual
		// fallback; a plain simulate request is just the default path.
		return res, EvalInfo{Residual: cfg.Evaluator != EvalSimulate}, err
	}
	if plan, derr := symbolicPlan(prog, g, cfg); derr == nil {
		if err := ctx.Err(); err != nil {
			return Result{}, EvalInfo{}, fmt.Errorf("eatss: evaluate %s on %s: %w", prog.Kernel.Name, g.Name, err)
		}
		res, err := plan.Eval(tiles)
		if err == nil || !errors.Is(err, symbolic.ErrResidual) {
			return res, EvalInfo{Symbolic: true}, err
		}
	}
	res, err := runAnalyzed(ctx, prog, g, tiles, cfg)
	return res, EvalInfo{Residual: true}, err
}
