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
// The typical flow stages a kernel once with Analyze and runs every
// operation through the resulting Program:
//
//	k, _ := eatss.Kernel("gemm")
//	g := eatss.GA100()
//	prog, _ := eatss.Analyze(k, nil)
//	sel, _ := prog.SelectTiles(g, eatss.DefaultOptions())
//	res, _, _ := prog.RunCtx(ctx, g, sel.Tiles, eatss.RunConfig{UseShared: true})
//	fmt.Println(res.GFLOPS, res.AvgPowerW, res.PPW)
//
// The few package-level helpers (SelectTiles, ExploreSpaceOpt) are
// one-shot conveniences that call Analyze first, so they validate the
// kernel exactly like the Program path.
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
// per-point compile+simulate path or the closed-form symbolic plans of
// internal/symbolic (with simulator fallback for residual points). The
// zero value is EvalSimulate, so existing RunConfigs keep their
// behaviour.
type Evaluator = symbolic.Evaluator

// Evaluation backends.
const (
	// EvalSimulate compiles and simulates every point (the default).
	EvalSimulate = symbolic.EvalSimulate
	// EvalSymbolic evaluates through the once-per-Program closed-form
	// plan, falling back to simulation only for residual points.
	EvalSymbolic = symbolic.EvalSymbolic
	// EvalAuto asks for the fastest exact backend. That is the
	// closed-form plan with simulator fallback, so EvalAuto is an alias
	// of EvalSymbolic (and reports itself as "symbolic").
	EvalAuto = symbolic.EvalSymbolic
)

// ParseEvaluator parses "simulate", "symbolic" or "auto" (the empty
// string means EvalSimulate; "auto" means EvalSymbolic), as accepted by
// CLI flags and the eatssd request field.
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
// selection (see Program.Explain).
type ConstraintSlack = core.ConstraintSlack

// DefaultOptions mirrors the paper's GA100 walkthrough (50% split,
// half-warp alignment, FP64).
func DefaultOptions() Options { return core.DefaultOptions() }

// SelectTiles runs the EATSS model generator and solver (Sec. IV) on a
// kernel: a one-shot Analyze(k, nil) followed by Program.SelectTiles.
// A kernel Analyze rejects returns Analyze's error.
func SelectTiles(k *AffineKernel, g *GPU, opts Options) (*Selection, error) {
	prog, err := Analyze(k, nil)
	if err != nil {
		return nil, err
	}
	return prog.SelectTiles(g, opts)
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
	// Evaluator selects the evaluation backend for RunCtx,
	// ExploreSpaceOpt and SelectBestEval (and, through them, autotune
	// and the eatssd service): EvalSimulate (default) compiles and
	// simulates each point; EvalSymbolic evaluates through a closed-form
	// plan derived once per Program, falling back to simulation for
	// residual points (configurations using TimeTileFuse or RegTile
	// are outside the closed-form domain and always simulate).
	// CompileCtx ignores it — a MappedKernel is inherently a compile
	// artifact.
	Evaluator Evaluator
}

// Candidate is one (EATSS configuration, simulated outcome) pair from
// SelectBestEval.
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

// selectBestAnalyzed is SelectBestEval's protocol on a staged analysis.
func selectBestAnalyzed(ctx context.Context, prog *analysis.Program, g *arch.GPU, prec Precision, eval Evaluator) (*Best, error) {
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
		outs[i] = selectSplit(ctx, prog, g, SharedSplits[i], prec, eval)
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
// under its own "eatss.candidate" span: core.SelectSplit's warp-fraction
// fallback, then an evaluation of its tiles.
func selectSplit(ctx context.Context, prog *analysis.Program, g *arch.GPU, split float64, prec Precision, eval Evaluator) (out splitOutcome) {
	ctx, csp := obs.Start(ctx, "eatss.candidate")
	defer csp.End()
	csp.SetFloat("split", split)
	sel, staticSkips, _ := core.SelectSplit(ctx, prog, g, split, prec)
	if staticSkips > 0 {
		mStaticSkips.Add(int64(staticSkips))
		csp.SetInt("static_skips", int64(staticSkips))
	}
	if sel == nil {
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
	out.sel = sel
	res, info, err := evalAnalyzed(ctx, prog, g, sel.Tiles, RunConfig{
		UseShared: split > 0,
		Precision: prec,
		Evaluator: eval,
	})
	csp.SetBool("symbolic", info.Symbolic)
	if info.Residual {
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

// ExploreStats summarizes an ExploreSpaceOpt sweep, so callers can
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
