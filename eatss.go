// Package eatss is a pure-Go reproduction of "Energy-Aware Tile Size
// Selection for Affine Programs on GPUs" (CGO 2024). It bundles the full
// pipeline the paper builds from isl/PPCG, Z3 and two NVIDIA GPUs:
//
//   - an affine-kernel IR and benchmark catalog (Polybench + the paper's
//     non-Polybench kernels),
//   - dependence/reuse analysis,
//   - the EATSS non-linear integer model generator and a finite-domain
//     solver standing in for Z3,
//   - a PPCG-style tiled-code mapper and baseline,
//   - a GPU performance/power simulator standing in for the GA100 and
//     Jetson AGX Xavier testbeds.
//
// The typical flow:
//
//	k, _ := eatss.Kernel("gemm")
//	g := eatss.GA100()
//	sel, _ := eatss.SelectTiles(k, g, eatss.DefaultOptions())
//	res, _ := eatss.Run(k, g, sel.Tiles, eatss.RunConfig{UseShared: true})
//	fmt.Println(res.GFLOPS, res.AvgPowerW, res.PPW)
package eatss

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/ppcg"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// Protocol-level telemetry: how many configurations the end-to-end
// protocol tried, and how many were silently dropped before this layer
// surfaced them (infeasible formulations, unmappable tile choices).
var (
	mCandidates       = obs.NewCounter("eatss.candidates")
	mInfeasibleSplits = obs.NewCounter("eatss.infeasible_splits")
	mFailedMaps       = obs.NewCounter("eatss.failed_maps")
	mExploreSkipped   = obs.NewCounter("eatss.explore_skipped")
	// mStaticSkips counts (split x warp-fraction) solver calls the
	// static feasibility analysis proved UNSAT without the solver.
	mStaticSkips = obs.NewCounter("eatss.static_skips")
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// AffineKernel is an affine program: arrays, parameters, loop nests.
	AffineKernel = affine.Kernel
	// Precision selects FP32 or FP64 data.
	Precision = affine.Precision
	// GPU is a machine description (resources, throughput, power model).
	GPU = arch.GPU
	// Options configures the EATSS model generator (split factor, warp
	// fraction, precision).
	Options = core.Options
	// Selection is a solved EATSS tile choice.
	Selection = core.Selection
	// Result is a simulated execution (time, GFLOP/s, power, energy,
	// PPW, L2 sectors).
	Result = gpusim.Result
	// MappedKernel is a compiled (tiled + GPU-mapped) kernel.
	MappedKernel = codegen.MappedKernel
)

// Floating-point precisions.
const (
	FP32 = affine.FP32
	FP64 = affine.FP64
)

// Evaluator selects the evaluation backend for tile points: the
// per-point compile+simulate path, the closed-form symbolic plans of
// internal/symbolic (with simulator fallback for residual points), or
// an automatic choice. The zero value is EvalSimulate, so existing
// RunConfigs keep their behaviour.
type Evaluator = symbolic.Evaluator

// Evaluation backends.
const (
	// EvalSimulate compiles and simulates every point (the default).
	EvalSimulate = symbolic.EvalSimulate
	// EvalSymbolic evaluates through the once-per-Program closed-form
	// plan, falling back to simulation only for residual points.
	EvalSymbolic = symbolic.EvalSymbolic
	// EvalAuto lets the library pick the fastest exact backend.
	EvalAuto = symbolic.EvalAuto
)

// ParseEvaluator parses "simulate", "symbolic" or "auto" (the empty
// string means EvalSimulate), as accepted by CLI flags and the eatssd
// request field.
func ParseEvaluator(s string) (Evaluator, error) { return symbolic.ParseEvaluator(s) }

// Kernels returns the names of the built-in benchmark kernels.
func Kernels() []string { return affine.Catalog() }

// PolybenchKernels returns the Polybench subset of the catalog.
func PolybenchKernels() []string { return affine.PolybenchNames() }

// NonPolybenchKernels returns conv-2d, heat-3d and mttkrp (Sec. V-D).
func NonPolybenchKernels() []string { return affine.NonPolybenchNames() }

// Kernel returns a built-in kernel with its EXTRALARGE default parameters.
func Kernel(name string) (*AffineKernel, error) { return affine.Lookup(name) }

// MustKernel is Kernel for static names; it panics on unknown kernels.
func MustKernel(name string) *AffineKernel { return affine.MustLookup(name) }

// StandardParams returns the STANDARD-dataset parameters for a kernel
// (the sizes the paper uses on the Xavier).
func StandardParams(name string) (map[string]int64, error) {
	return affine.StandardParams(name)
}

// ParseKernel parses a kernel written in the affine-kernel DSL (see
// internal/parser's package documentation for the grammar) and validates
// it. The DSL round-trips: WriteKernel(k) re-parses to an equivalent
// kernel.
func ParseKernel(src string) (*AffineKernel, error) { return parser.Parse(src) }

// WriteKernel serializes a kernel into the DSL.
func WriteKernel(k *AffineKernel) string { return parser.Write(k) }

// Schedule permutes each nest's loops into the GPU-canonical order
// (parallel loops outermost, the coalescing loop innermost among them,
// serial loops last), when dependences allow it — the normalization
// PPCG's scheduler performs before tiling. Built-in kernels are already
// canonical; call this on kernels parsed from the DSL in arbitrary loop
// orders. The kernel is modified in place; the returned plans say what
// changed.
func Schedule(k *AffineKernel) []SchedulePlan { return sched.ScheduleKernel(k) }

// SchedulePlan describes one nest's scheduling outcome.
type SchedulePlan = sched.Plan

// GA100 returns the NVIDIA GA100 machine description (Table III).
func GA100() *GPU { return arch.GA100() }

// Xavier returns the Jetson AGX Xavier machine description (Table III).
func Xavier() *GPU { return arch.Xavier() }

// V100 returns an NVIDIA V100-class description — a third platform beyond
// the paper's testbed for generality studies.
func V100() *GPU { return arch.V100() }

// LoadGPU reads and validates a machine description from a JSON file,
// allowing the pipeline to target hardware beyond the built-in presets.
func LoadGPU(path string) (*GPU, error) { return arch.LoadFile(path) }

// GPUByName resolves "ga100"/"a100"/"xavier"/"v100".
func GPUByName(name string) (*GPU, error) {
	g, ok := arch.ByName(name)
	if !ok {
		return nil, fmt.Errorf("eatss: unknown GPU %q (want ga100, xavier or v100)", name)
	}
	return g, nil
}

// ConstraintSlack reports one resource constraint's usage under a
// selection (see Explain).
type ConstraintSlack = core.ConstraintSlack

// Explain evaluates the selection's resource constraints under its chosen
// tiles and reports usage and binding constraints (the paper's
// walkthrough arithmetic: e.g. gemm's L1 capacity binds exactly at
// (Ti+Tk)*Tj = M_L1). The string is a rendered table.
func Explain(k *AffineKernel, g *GPU, sel *Selection) ([]ConstraintSlack, string) {
	return core.Explain(k, g, sel)
}

// DefaultOptions mirrors the paper's GA100 walkthrough (50% split,
// half-warp alignment, FP64).
func DefaultOptions() Options { return core.DefaultOptions() }

// SelectTiles runs the EATSS model generator and solver (Sec. IV).
func SelectTiles(k *AffineKernel, g *GPU, opts Options) (*Selection, error) {
	return core.SelectTiles(k, g, opts)
}

// SelectTilesCtx is SelectTiles with the caller's context threaded
// through, so spans recorded by the model generator and solver nest
// under the caller's internal/obs span (see README's Observability
// section).
func SelectTilesCtx(ctx context.Context, k *AffineKernel, g *GPU, opts Options) (*Selection, error) {
	return core.SelectTilesCtx(ctx, k, g, opts)
}

// DefaultTiles returns PPCG's default 32^d configuration.
func DefaultTiles(k *AffineKernel) map[string]int64 { return ppcg.DefaultTiles(k) }

// RunConfig configures compilation and simulation of one tile choice.
type RunConfig struct {
	// Params overrides the kernel's problem sizes (nil = defaults).
	Params map[string]int64
	// UseShared enables shared-memory staging of non-coalescable
	// references (PPCG --use-shared-memory).
	UseShared bool
	// SharedQuota caps the per-block staging bytes (0 = hardware limit).
	SharedQuota int64
	// Precision selects FP32/FP64 (default FP64, like the paper).
	Precision Precision
	// TimeTileFuse > 1 enables the overlapped time-tiling extension on
	// repeated stencil nests, fusing that many time steps per launch —
	// the inter-step reuse the paper notes PPCG lacks (Sec. V-B). Nests
	// where the fusion is infeasible (no halo, tile too small) keep the
	// step-per-launch behavior.
	TimeTileFuse int64
	// RegTile > 1 enables register micro-tiles: each thread computes an
	// r x r output block held in registers (the optimization separating
	// PPCG code from vendor libraries). Nests where it is infeasible
	// keep one point per thread.
	RegTile int64
	// Verify selects independent certification of each compiled mapping
	// (launch geometry, staging footprint, register budget — see
	// CertifyMapped). A failed certification is a hard compile error.
	Verify VerifyMode
	// Evaluator selects the evaluation backend for Run/ExploreSpace/
	// SelectBest (and, through them, autotune and the eatssd service):
	// EvalSimulate (default) compiles and simulates each point;
	// EvalSymbolic and EvalAuto evaluate through a closed-form plan
	// derived once per Program, falling back to simulation for residual
	// points (configurations using TimeTileFuse, RegTile or Verify are
	// outside the closed-form domain and always simulate). Compile
	// ignores it — a MappedKernel is inherently a compile artifact.
	Evaluator Evaluator
}

// Compile maps a kernel with the given tiles onto the GPU (the PPCG step).
func Compile(k *AffineKernel, g *GPU, tiles map[string]int64, cfg RunConfig) (*MappedKernel, error) {
	return CompileCtx(context.Background(), k, g, tiles, cfg)
}

// CompileCtx is Compile with the caller's context threaded through for
// observability. It stages the analysis fresh; callers compiling more
// than one configuration should Analyze once and use Program.Compile.
func CompileCtx(ctx context.Context, k *AffineKernel, g *GPU, tiles map[string]int64, cfg RunConfig) (*MappedKernel, error) {
	return compileAnalyzed(ctx, analysis.AnalyzeCtx(ctx, k, cfg.Params), g, tiles, cfg)
}

// Run compiles and simulates one tile configuration.
func Run(k *AffineKernel, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, error) {
	return RunCtx(context.Background(), k, g, tiles, cfg)
}

// RunCtx is Run with the caller's context threaded through: one enabled
// call produces a compile span and a simulate span under the caller's.
// It stages the analysis fresh; callers evaluating more than one tile
// configuration should Analyze once and use Program.Run.
func RunCtx(ctx context.Context, k *AffineKernel, g *GPU, tiles map[string]int64, cfg RunConfig) (Result, error) {
	res, _, err := evalAnalyzed(ctx, analysis.AnalyzeCtx(ctx, k, cfg.Params), g, tiles, cfg)
	return res, err
}

// Candidate is one (EATSS configuration, simulated outcome) pair from
// SelectBest.
type Candidate struct {
	Selection *Selection
	Result    Result
	// SharedFrac is the shared-memory split the configuration used.
	SharedFrac float64
}

// Best is the outcome of the paper's end-to-end protocol.
type Best struct {
	Kernel     string
	GPU        string
	Chosen     Candidate
	Candidates []Candidate
	// SolverCalls and SolveTime sum the per-candidate solver effort of
	// every split that found a configuration (Sec. V-G measures the
	// end-to-end iterative process). The splits are solved
	// concurrently, so SolveTime can exceed the call's wall time.
	SolverCalls int
	SolveTime   time.Duration
	// InfeasibleSplits counts shared-memory splits for which no warp
	// fraction yielded a satisfiable formulation (Sec. V-D's failure
	// mode); Skipped counts feasible selections whose tile choice then
	// failed to map/simulate. Together they distinguish "the space was
	// empty" from "everything failed" when Candidates is short.
	InfeasibleSplits int
	Skipped          int
	// Residual counts candidate evaluations that fell back from the
	// requested closed-form backend to per-point simulation (always zero
	// under EvalSimulate, where simulation is the requested backend).
	Residual int
}

// SharedSplits are the three shared-memory levels the paper generates
// configurations for (Sec. V-B: 0%, 50%, 67%).
var SharedSplits = core.SharedSplits

// WarpFractions are tried coarsest-first; finer fractions unlock
// high-dimensional kernels (Sec. V-D).
var WarpFractions = core.WarpFractions

// SelectBest runs the paper's full protocol: generate one EATSS
// configuration per shared-memory split (falling back to finer warp
// fractions when the formulation is unsatisfiable), evaluate each, and
// keep the best by performance-per-Watt. The splits run concurrently
// and are merged in split order, so the outcome is the one a serial loop
// over SharedSplits gives.
func SelectBest(k *AffineKernel, g *GPU, prec Precision, params map[string]int64) (*Best, error) {
	return SelectBestCtx(context.Background(), k, g, prec, params)
}

// SelectBestCtx is SelectBest with the caller's context threaded
// through: one enabled run records an "eatss.select_best" span with one
// "eatss.candidate" child per shared-memory split (the children
// overlap in time). The analysis is staged once and shared by all nine
// potential solver calls and every candidate evaluation. A ctx
// cancelled before the protocol finishes yields an error wrapping
// ctx.Err(), never a Best built from the splits that completed.
func SelectBestCtx(ctx context.Context, k *AffineKernel, g *GPU, prec Precision, params map[string]int64) (*Best, error) {
	// Solve under the kernel's own params (like SelectTiles), evaluate
	// under the caller's params override — the pre-staged protocol's
	// semantics. The reuse analysis is size-independent, so one artifact
	// serves both.
	return selectBestAnalyzed(ctx, analysis.AnalyzeCtx(ctx, k, nil), g, prec, params, EvalSimulate)
}

// SelectBestEval is SelectBestCtx with an explicit evaluation backend:
// under EvalSymbolic/EvalAuto each candidate is evaluated through the
// Program's closed-form plan (with simulator fallback for residual
// configurations) instead of being compiled and simulated.
func SelectBestEval(ctx context.Context, k *AffineKernel, g *GPU, prec Precision, params map[string]int64, eval Evaluator) (*Best, error) {
	return selectBestAnalyzed(ctx, analysis.AnalyzeCtx(ctx, k, nil), g, prec, params, eval)
}

func selectBestAnalyzed(ctx context.Context, prog *analysis.Program, g *arch.GPU, prec Precision, params map[string]int64, eval Evaluator) (*Best, error) {
	k := prog.Kernel
	ctx, root := obs.Start(ctx, "eatss.select_best")
	defer root.End()
	root.SetStr("kernel", k.Name)
	root.SetStr("gpu", g.Name)
	// The splits share only the read-only Program, so they run
	// concurrently. Each writes its own slot and the fold below reads
	// the slots in split order, so the Best is a serial loop's.
	outs := make([]splitOutcome, len(SharedSplits))
	fanOut(len(outs), func(i int) {
		outs[i] = selectSplit(ctx, prog, g, SharedSplits[i], prec, params, eval)
	})
	if err := ctx.Err(); err != nil {
		// An interrupted split looks like an infeasible or unmappable
		// one, so whatever the splits returned is not the protocol's
		// answer: report the interruption instead of a partial Best.
		root.SetBool("canceled", true)
		return nil, fmt.Errorf("eatss: SelectBest for %s on %s interrupted: %w", k.Name, g.Name, err)
	}
	best := &Best{Kernel: k.Name, GPU: g.Name}
	for i, o := range outs {
		if o.sel == nil {
			best.InfeasibleSplits++
			continue
		}
		best.SolverCalls += o.sel.SolverCalls
		best.SolveTime += o.sel.SolveTime
		if o.residual {
			best.Residual++
		}
		if !o.mapped {
			best.Skipped++
			continue
		}
		best.Candidates = append(best.Candidates, Candidate{
			Selection:  o.sel,
			Result:     o.res,
			SharedFrac: SharedSplits[i],
		})
	}
	if len(best.Candidates) == 0 {
		return nil, fmt.Errorf("eatss: no feasible configuration for %s on %s (%d infeasible splits, %d failed to map)",
			k.Name, g.Name, best.InfeasibleSplits, best.Skipped)
	}
	best.Chosen = best.Candidates[0]
	for _, c := range best.Candidates[1:] {
		if c.Result.PPW > best.Chosen.Result.PPW {
			best.Chosen = c
		}
	}
	root.SetInt("candidates", int64(len(best.Candidates)))
	root.SetInt("solver_calls", int64(best.SolverCalls))
	root.SetFloat("chosen_ppw", best.Chosen.Result.PPW)
	return best, nil
}

// splitOutcome is one shared-memory split's share of a Best. sel is nil
// when no warp fraction gave a satisfiable formulation (Sec. V-D's
// failure mode); otherwise mapped reports whether sel's tiles mapped,
// and res holds their evaluation if so.
type splitOutcome struct {
	sel      *Selection
	res      Result
	mapped   bool
	residual bool
}

// selectSplit generates and evaluates one split's EATSS configuration
// under its own "eatss.candidate" span: the warp fractions coarsest
// first until one is satisfiable, then an evaluation of its tiles.
func selectSplit(ctx context.Context, prog *analysis.Program, g *arch.GPU, split float64, prec Precision, params map[string]int64, eval Evaluator) (out splitOutcome) {
	ctx, csp := obs.Start(ctx, "eatss.candidate")
	defer csp.End()
	csp.SetFloat("split", split)
	staticSkips := 0
	for _, wf := range WarpFractions {
		// Static sibling skip: when the feasibility analysis proves
		// this (split x warp-fraction) formulation's region empty, the
		// solver call is guaranteed UNSAT, so it is skipped. The region
		// is the formulation the solve would lower, so the protocol's
		// outcome is unchanged; only the solver time is.
		if feas.Cached(prog, g, feas.ModelConfig(split, wf, prec)).Empty != nil {
			staticSkips++
			mStaticSkips.Add(1)
			continue
		}
		sel, err := core.SelectTilesAnalyzed(ctx, prog, g, Options{
			SplitFactor:      split,
			WarpFraction:     wf,
			Precision:        prec,
			ProblemSizeAware: true,
		})
		if err == nil {
			out.sel = sel
			break
		}
		if ctx.Err() != nil {
			// Interrupted: the caller reports the cancellation.
			break
		}
	}
	if staticSkips > 0 {
		csp.SetInt("static_skips", int64(staticSkips))
	}
	if out.sel == nil {
		if ctx.Err() != nil {
			csp.SetBool("canceled", true)
			return out
		}
		// This split has no feasible configuration at any warp
		// fraction.
		mInfeasibleSplits.Add(1)
		csp.SetBool("infeasible", true)
		return out
	}
	res, info, err := evalAnalyzed(ctx, prog, g, out.sel.Tiles, RunConfig{
		Params:    params,
		UseShared: split > 0,
		Precision: prec,
		Evaluator: eval,
	})
	csp.SetBool("symbolic", info.symbolic)
	if info.residual {
		out.residual = true
		csp.SetBool("residual", true)
	}
	if err != nil {
		// Feasible formulation, but the chosen tiles did not map.
		mFailedMaps.Add(1)
		csp.SetStr("map_error", err.Error())
		return out
	}
	mCandidates.Add(1)
	csp.SetFloat("ppw", res.PPW)
	csp.SetFloat("gflops", res.GFLOPS)
	out.res, out.mapped = res, true
	return out
}

// fanOut runs task(0), ..., task(n-1) concurrently, task 0 on the
// calling goroutine, and returns once every task has finished, so no
// goroutine outlives the call. A panicking task does not take down the
// process from a goroutine the caller cannot recover: the panic is
// captured and, after the join, re-raised with its original value on
// the calling goroutine (the lowest-indexed one if several panicked,
// as a serial loop would have raised it).
func fanOut(n int, task func(i int)) {
	panics := make([]any, n)
	run := func(i int) {
		defer func() { panics[i] = recover() }()
		task(i)
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	if n > 0 {
		run(0)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// ExploreStats summarizes an ExploreSpace sweep, so callers can
// distinguish "the space was empty" from "every configuration failed to
// map" (and, since the sweep engine became concurrent, "the sweep was
// cancelled part-way").
type ExploreStats struct {
	// Evaluated configurations compiled and simulated successfully.
	Evaluated int
	// Pruned configurations were removed before evaluation by the
	// static feasibility pre-filter (SweepOptions.Prune); zero unless
	// pruning was requested.
	Pruned int
	// Skipped configurations failed to map (execution-model limits).
	Skipped int
	// CacheHits counts configurations served from the memoizing
	// evaluation cache instead of being compiled and simulated.
	CacheHits int
	// Symbolic counts fresh evaluations served by the closed-form
	// backend; Residual counts the points that fell back to per-point
	// simulation although a symbolic evaluator was requested. Both stay
	// zero under EvalSimulate.
	Symbolic int
	Residual int
	// Aborted reports that the context was cancelled before the sweep
	// finished: the returned points cover only the configurations
	// dispatched before cancellation.
	Aborted bool
}

// ExploreSpace simulates every tile configuration in the space (the
// paper's exhaustive exploration studies, Secs. II and V). Configurations
// that fail to map are counted in the returned stats' Skipped field. The
// returned slice is ordered like the input space.
//
// Evaluations run on a bounded worker pool (GOMAXPROCS workers) and are
// memoized in DefaultEvalCache; use ExploreSpaceOpt to control either.
// The parallel sweep returns byte-identical results to a sequential one.
func ExploreSpace(k *AffineKernel, g *GPU, space []map[string]int64, cfg RunConfig) ([]SpacePoint, ExploreStats) {
	return ExploreSpaceCtx(context.Background(), k, g, space, cfg)
}

// ExploreSpaceCtx is ExploreSpace with the caller's context threaded
// through, for observability and cancellation: a cancelled ctx stops the
// sweep between evaluations and returns the points completed so far with
// stats.Aborted set. Note that with tracing enabled every configuration
// records compile/simulate spans (nested under per-worker "sweep.worker"
// spans), so sweeping thousands of points produces a large trace.
func ExploreSpaceCtx(ctx context.Context, k *AffineKernel, g *GPU, space []map[string]int64, cfg RunConfig) ([]SpacePoint, ExploreStats) {
	return ExploreSpaceOpt(ctx, k, g, space, cfg, SweepOptions{})
}

// SpacePoint is one evaluated tile configuration. Tiles is a defensive
// copy owned by the point — it never aliases the input space's maps.
type SpacePoint struct {
	Tiles  map[string]int64
	Result Result
}

// PaperSpace returns the paper's 15-sizes-per-dimension exploration space
// for a kernel (15^d configurations).
func PaperSpace(k *AffineKernel) []map[string]int64 {
	return ppcg.Space(k, ppcg.PaperSpaceSizes())
}

// Space enumerates a tile space over custom candidate sizes.
func Space(k *AffineKernel, sizes []int64) []map[string]int64 {
	return ppcg.Space(k, sizes)
}
