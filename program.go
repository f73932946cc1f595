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
	"repro/internal/verify"
)

// Program is the staged-compilation artifact: everything about a
// (kernel, problem-sizes) pair that does not depend on tile sizes or
// model options, computed once by Analyze and reused by every
// downstream stage. Solving the EATSS model, compiling a tile choice,
// simulating it, sweeping a tile space and explaining a selection all
// consume the same dependence/reuse analysis; a Program performs it
// once where the free functions (SelectTiles, Run, ExploreSpace, ...)
// re-derive it per call.
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

// DefaultTiles returns PPCG's default 32^d configuration for the
// Program's kernel.
func (p *Program) DefaultTiles() map[string]int64 { return ppcg.DefaultTiles(p.prog.Kernel) }

// Lint diagnoses the Program's kernel under its resolved problem sizes
// (see the package-level Lint). A validated kernel can still carry
// Warning-severity findings — dead arrays, uncoalescable access
// patterns, empty domains under these problem sizes.
func (p *Program) Lint() []Diag { return lint.Lint(p.prog.Kernel, p.prog.Params) }

// Compile maps a tile choice onto the GPU (the PPCG step), reusing the
// staged analysis. cfg.Params may override the Program's problem sizes
// for this compile only (the analysis is size-independent); nil keeps
// them.
func (p *Program) Compile(g *GPU, tiles map[string]int64, cfg RunConfig) (*MappedKernel, error) {
	return p.CompileCtx(context.Background(), g, tiles, cfg)
}

// CompileCtx is Compile with the caller's context threaded through.
func (p *Program) CompileCtx(ctx context.Context, g *GPU, tiles map[string]int64, cfg RunConfig) (*MappedKernel, error) {
	return compileAnalyzed(ctx, p.prog, g, tiles, cfg)
}

// Run compiles and simulates one tile configuration.
func (p *Program) Run(g *GPU, tiles map[string]int64, cfg RunConfig) (Result, error) {
	return p.RunCtx(context.Background(), g, tiles, cfg)
}

// RunCtx is Run with the caller's context threaded through. It honours
// cfg.Evaluator: under EvalSymbolic/EvalAuto the point is evaluated
// through the Program's closed-form plan when one derives.
func (p *Program) RunCtx(ctx context.Context, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, error) {
	res, _, err := evalAnalyzed(ctx, p.prog, g, tiles, cfg)
	return res, err
}

// EvalInfo attributes one evaluation to a backend — the exported view
// of the dispatch decision RunCtx makes internally.
type EvalInfo struct {
	// Symbolic: the point was evaluated through the closed-form plan.
	Symbolic bool
	// Residual: a symbolic evaluator was requested but the point fell
	// back to compile+simulate (unsupported config, underivable program,
	// or a per-point residual).
	Residual bool
}

// RunEvalCtx is RunCtx returning the backend attribution alongside the
// result, so serving layers can flag residual fallbacks per request.
func (p *Program) RunEvalCtx(ctx context.Context, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, EvalInfo, error) {
	res, info, err := evalAnalyzed(ctx, p.prog, g, tiles, cfg)
	return res, EvalInfo{Symbolic: info.symbolic, Residual: info.residual}, err
}

// SelectBest runs the paper's end-to-end protocol (one candidate per
// shared-memory split, best by performance-per-Watt) with the staged
// analysis shared across every solve and evaluation — nine model
// instantiations, one analysis.
func (p *Program) SelectBest(g *GPU, prec Precision) (*Best, error) {
	return p.SelectBestCtx(context.Background(), g, prec)
}

// SelectBestCtx is SelectBest with the caller's context threaded
// through.
func (p *Program) SelectBestCtx(ctx context.Context, g *GPU, prec Precision) (*Best, error) {
	return selectBestAnalyzed(ctx, p.prog, g, prec, nil, EvalSimulate)
}

// SelectBestEval is SelectBestCtx with an explicit evaluation backend
// (see the package-level SelectBestEval).
func (p *Program) SelectBestEval(ctx context.Context, g *GPU, prec Precision, eval Evaluator) (*Best, error) {
	return selectBestAnalyzed(ctx, p.prog, g, prec, nil, eval)
}

// ExploreSpace sweeps a tile space, sharing the staged analysis across
// the worker pool (see ExploreSpaceOpt for the sweep contracts).
func (p *Program) ExploreSpace(g *GPU, space []map[string]int64, cfg RunConfig) ([]SpacePoint, ExploreStats) {
	return p.ExploreSpaceOpt(context.Background(), g, space, cfg, SweepOptions{})
}

// ExploreSpaceOpt is ExploreSpace with explicit sweep options (worker
// count, memoization cache).
func (p *Program) ExploreSpaceOpt(ctx context.Context, g *GPU, space []map[string]int64, cfg RunConfig, opt SweepOptions) ([]SpacePoint, ExploreStats) {
	return exploreAnalyzed(ctx, p.prog, g, space, cfg, opt)
}

// PaperSpace returns the paper's 15-sizes-per-dimension exploration
// space for the Program's kernel.
func (p *Program) PaperSpace() []map[string]int64 {
	return ppcg.Space(p.prog.Kernel, ppcg.PaperSpaceSizes())
}

// Space enumerates a tile space over custom candidate sizes.
func (p *Program) Space(sizes []int64) []map[string]int64 {
	return ppcg.Space(p.prog.Kernel, sizes)
}

// Explain evaluates a selection's resource constraints from the staged
// analysis (see the package-level Explain).
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
	if cfg.Verify.ShouldVerify(prog.Fingerprint() + "|" + g.Name + "|" + tileKey(tiles)) {
		if err := verify.CertifyKernel(mk, g); err != nil {
			return nil, fmt.Errorf("eatss: compiled mapping for %s on %s failed certification: %w",
				prog.Kernel.Name, g.Name, err)
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
// not model, and certification requires a MappedKernel to certify.
func symbolicSupported(cfg RunConfig) bool {
	return cfg.TimeTileFuse <= 1 && cfg.RegTile <= 1 && cfg.Verify == VerifyOff
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

// evalInfo attributes one evaluation to a backend.
type evalInfo struct {
	// symbolic: the point was evaluated through the closed-form plan.
	// residual: a symbolic evaluator was requested but the point fell
	// back to compile+simulate (unsupported config, underivable
	// program, or a per-point residual).
	symbolic, residual bool
}

// evalAnalyzed is the evaluation seam every consumer of "what does this
// tile point cost" goes through (sweep workers, SelectBest candidates,
// Run, autotune probes, the eatssd service): it dispatches between the
// closed-form symbolic backend and per-point compile+simulate according
// to cfg.Evaluator, with the simulator as the residual fallback.
func evalAnalyzed(ctx context.Context, prog *analysis.Program, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, evalInfo, error) {
	if cfg.Evaluator == EvalSimulate || !symbolicSupported(cfg) {
		res, err := runAnalyzed(ctx, prog, g, tiles, cfg)
		// A symbolic request routed to the simulator is a residual
		// fallback; a plain simulate request is just the default path.
		return res, evalInfo{residual: cfg.Evaluator != EvalSimulate}, err
	}
	if plan, derr := symbolicPlan(prog, g, cfg); derr == nil {
		if err := ctx.Err(); err != nil {
			return Result{}, evalInfo{}, fmt.Errorf("eatss: evaluate %s on %s: %w", prog.Kernel.Name, g.Name, err)
		}
		res, err := plan.Eval(tiles)
		if err == nil || !errors.Is(err, symbolic.ErrResidual) {
			return res, evalInfo{symbolic: true}, err
		}
	}
	res, err := runAnalyzed(ctx, prog, g, tiles, cfg)
	return res, evalInfo{residual: true}, err
}
