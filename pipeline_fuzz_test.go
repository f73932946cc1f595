package eatss_test

// Whole-pipeline robustness: randomly generated (but valid) affine kernels
// must flow through dependence analysis, scheduling, EATSS, mapping and
// simulation without panics, and every success must satisfy the physical
// invariants. This is the widest net in the suite: it exercises kernel
// shapes no catalog entry has.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/deps"
	"repro/internal/sched"
)

func TestRandomKernelsThroughPipeline(t *testing.T) {
	g := eatss.GA100()
	solved, mapped := 0, 0
	residualPoints := 0
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := affine.RandomKernel(r)
		if err := k.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid kernel: %v", seed, err)
		}

		// Analysis must be sound on a shrunken instance.
		small := map[string]int64{}
		for p := range k.Params {
			small[p] = 8
		}
		for ni := range k.Nests {
			if v, err := deps.VerifyParallelism(&k.Nests[ni], small); err != nil {
				t.Fatalf("seed %d nest %d: oracle error: %v", seed, ni, err)
			} else if len(v) > 0 {
				t.Fatalf("seed %d nest %d: unsound parallelism: %v", seed, ni, v)
			}
		}

		// Scheduling must keep the kernel valid.
		sched.ScheduleKernel(k)
		if err := k.Validate(); err != nil {
			t.Fatalf("seed %d: scheduling broke the kernel: %v", seed, err)
		}

		// Lint oracle: a generator kernel that passes Validate must lint
		// without panicking and without Error-severity findings (warnings
		// — dead iterators, uncoalescable patterns — are expected on
		// random shapes).
		if diags := eatss.Lint(k, nil); eatss.LintHasErrors(diags) {
			t.Fatalf("seed %d: valid kernel has lint errors:\n%s\nkernel:\n%s",
				seed, eatss.RenderDiags(diags), k)
		}

		// EATSS with warp-fraction fallback; nests without parallel loops
		// are legitimately rejected. Every accepted selection must pass
		// independent certification (the verify oracle) — both inside the
		// solve (Verify=All) and post-hoc.
		prog, err := eatss.Analyze(k, nil)
		if err != nil {
			t.Fatalf("seed %d: analyze failed: %v", seed, err)
		}
		ctx := context.Background()
		var sel *eatss.Selection
		for _, wf := range eatss.WarpFractions {
			s, err := prog.SelectTiles(g, eatss.Options{
				SplitFactor: 0.5, WarpFraction: wf,
				Precision: eatss.FP64, ProblemSizeAware: true,
				Verify: eatss.VerifyAll,
			})
			if err == nil {
				sel = s
				break
			}
		}
		if sel == nil {
			continue
		}
		solved++
		if err := eatss.Certify(k, g, sel); err != nil {
			t.Fatalf("seed %d: accepted selection failed certification: %v\nkernel:\n%s", seed, err, k)
		}
		tiles := sel.Tiles

		res, _, err := prog.RunCtx(ctx, g, tiles, eatss.RunConfig{
			UseShared: true, Precision: eatss.FP64, Verify: eatss.VerifyAll,
		})
		if err != nil {
			// Failing to map (execution-model limits) is a legitimate
			// outcome on random shapes; a certification Violation on a
			// mapping that WAS produced is always a bug.
			var v *eatss.Violation
			if errors.As(err, &v) {
				t.Fatalf("seed %d: compiled mapping failed certification: %v\nkernel:\n%s", seed, err, k)
			}
			continue
		}
		mapped++
		if res.TimeSec <= 0 || res.EnergyJ <= 0 ||
			res.AvgPowerW < (g.ConstantWatts+g.StaticWatts)*0.99 ||
			res.AvgPowerW > g.TDPWatts*1.01 {
			t.Fatalf("seed %d: unphysical result %+v for kernel:\n%s", seed, res, k)
		}

		// Attribution oracle: every successful run must decompose into a
		// conservation-checked profile — components non-negative, summing
		// to EnergyJ per nest and in total, per-array shares reproducing
		// each level — on kernel shapes no catalog entry has.
		p, err := eatss.ProfileOf(&res, tiles)
		if err != nil {
			t.Fatalf("seed %d: profile failed: %v\nkernel:\n%s", seed, err, k)
		}
		if err := p.Check(1e-9); err != nil {
			t.Fatalf("seed %d: attribution broke conservation: %v\nkernel:\n%s", seed, err, k)
		}

		// Backend-parity oracle: on shapes no catalog entry has, the
		// closed-form evaluator must agree with the simulator — or fall
		// back explicitly (counted, below). Single-point sweeps with
		// caching off surface the backend attribution per evaluation.
		cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
		simCfg, symCfg := cfg, cfg
		symCfg.Evaluator = eatss.EvalSymbolic
		point := []map[string]int64{tiles}
		opt := eatss.SweepOptions{Cache: eatss.NoCache, Workers: 1}
		simPts, _ := prog.ExploreSpaceOpt(ctx, g, point, simCfg, opt)
		symPts, symStats := prog.ExploreSpaceOpt(ctx, g, point, symCfg, opt)
		if len(simPts) != len(symPts) {
			t.Fatalf("seed %d: backends disagree on validity: %d vs %d points\nkernel:\n%s",
				seed, len(simPts), len(symPts), k)
		}
		if symStats.Symbolic+symStats.Residual != 1 {
			t.Fatalf("seed %d: symbolic evaluation attributed to no backend", seed)
		}
		residualPoints += symStats.Residual
		if len(simPts) == 1 {
			a, b := simPts[0].Result, symPts[0].Result
			if a.Flops != b.Flops || a.L2Sectors != b.L2Sectors || a.DRAMBytes != b.DRAMBytes {
				t.Fatalf("seed %d: backend integer counters diverge: %+v vs %+v\nkernel:\n%s",
					seed, a, b, k)
			}
			if d := a.EnergyJ - b.EnergyJ; d > 1e-9*a.EnergyJ || d < -1e-9*a.EnergyJ {
				t.Fatalf("seed %d: backend energies diverge: %g vs %g\nkernel:\n%s",
					seed, a.EnergyJ, b.EnergyJ, k)
			}
		}
	}
	// The generator must actually exercise the pipeline, not just get
	// rejected — and the symbolic backend must cover most of what maps
	// (residual fallbacks are legal, a backend that always falls back is
	// dead code).
	if solved < 60 || mapped < 50 {
		t.Fatalf("only %d/120 kernels solved and %d mapped — generator too narrow", solved, mapped)
	}
	if residualPoints > mapped/2 {
		t.Fatalf("symbolic backend fell back on %d of %d mapped kernels", residualPoints, mapped)
	}
}

// FuzzPipeline is the false-prune property: on randomly generated
// kernels, every point the static feasibility region would prune from a
// sweep must (a) carry a certificate that replays under the independent
// math/big certifier and (b) be unsatisfiable when re-decided by the
// SMT solver — and the solver's own selections must never be pruned.
// `go test -fuzz=FuzzPipeline` explores new shapes; the seed corpus
// runs on every plain `go test`.
func FuzzPipeline(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 98765} {
		f.Add(seed)
	}
	g := eatss.GA100()
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		k := affine.RandomKernel(r)
		if k.Validate() != nil {
			t.Skip("generator rejected the shape")
		}
		prog, err := eatss.Analyze(k, nil)
		if err != nil {
			t.Skip("kernel does not analyze")
		}
		region := prog.FeasibleRegion(g, eatss.RunConfig{Precision: eatss.FP64})
		cfg := eatss.SweepPruneConfig(eatss.FP64)

		space := eatss.Space(k, []int64{4, 16, 64, 512})
		if len(space) > 4096 {
			space = space[:4096]
		}
		smtChecked := 0
		for _, tiles := range space {
			cert := region.Check(tiles)
			if cert == nil {
				continue
			}
			if err := eatss.CertifyPrune(k, k.Params, g, cfg, cert); err != nil {
				t.Fatalf("false prune of %v: %v\nkernel:\n%s", tiles, err, k)
			}
			// Solver re-decisions are the expensive half; a bounded
			// sample per kernel keeps the corpus fast while -fuzz still
			// accumulates coverage across inputs.
			if smtChecked < 24 {
				if !region.UnsatSMT(tiles) {
					t.Fatalf("solver finds pruned point %v satisfiable (claimed %s)\nkernel:\n%s",
						tiles, cert.Constraint, k)
				}
				smtChecked++
			}
		}

		for _, wf := range eatss.WarpFractions {
			sel, err := eatss.SelectTiles(k, g, eatss.Options{
				SplitFactor: 0.5, WarpFraction: wf,
				Precision: eatss.FP64, ProblemSizeAware: true,
			})
			if err != nil {
				continue
			}
			if cert := region.Check(sel.Tiles); cert != nil {
				t.Fatalf("solver selection %v pruned: %s\nkernel:\n%s", sel.Tiles, cert, k)
			}
			break
		}
	})
}
