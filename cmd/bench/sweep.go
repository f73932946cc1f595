package main

import (
	"context"
	"errors"
	"maps"
	"math/rand/v2"
	"reflect"
	"time"

	eatss "repro"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/feas"
	"repro/internal/symbolic"
)

// sweepKernels are the paper's 15^d exploration spaces the sweep
// workload covers, on both of the paper's GPUs.
var (
	sweepKernels = []string{"gemm", "2mm", "heat-3d", "jacobi-2d"}
	sweepGPUs    = []string{"ga100", "xavier"}
)

// pruneSample is the share of pruned points whose certificate the gate
// replays through the independent certifier: one in pruneSample.
const pruneSample = 64

// sweepInput is one (kernel, GPU, mode) sweep of a paper space.
type sweepInput struct {
	key         string // kernel|gpu|mode
	kernel      *eatss.AffineKernel
	gpu         *eatss.GPU
	space       []map[string]int64
	interactive bool
}

// cfg is the sweep's run configuration: the figure-reproduction
// exhaustive mode simulates every point; the interactive mode prunes
// statically infeasible points and evaluates the rest in closed form.
func (in sweepInput) cfg() eatss.RunConfig {
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	if in.interactive {
		cfg.Evaluator = eatss.EvalAuto
	}
	return cfg
}

// explore is the public path of one op.
func (in sweepInput) explore(workers int) ([]eatss.SpacePoint, eatss.ExploreStats) {
	return eatss.ExploreSpaceOpt(context.Background(), in.kernel, in.gpu, in.space, in.cfg(),
		eatss.SweepOptions{Workers: workers, Cache: eatss.NewEvalCache(), Prune: in.interactive})
}

// sweepSummary is the golden view of a sweep: its counts and argmax.
func sweepSummary(pts []eatss.SpacePoint, st eatss.ExploreStats) sweepOut {
	out := sweepOut{Evaluated: st.Evaluated, Skipped: st.Skipped, Pruned: st.Pruned, Residual: st.Residual}
	for i, p := range pts {
		if i == 0 || p.Result.PPW > out.PPW {
			out.Argmax, out.PPW = p.Tiles, p.Result.PPW
		}
	}
	return out
}

// sweepBench sweeps whole tile spaces, where the solver does no work:
// compile and simulate carry the exhaustive mode, and the feasibility
// pre-filter, the closed-form evaluator and the sweep engine carry the
// interactive mode.
type sweepBench struct {
	pool []sweepInput
	gold *golden
	rng  *rand.Rand
}

func setupSweep(e *env) (runner, error) {
	w := &sweepBench{gold: e.golden, rng: e.rng(3)}
	for _, name := range sweepKernels {
		k, err := eatss.Kernel(name)
		if err != nil {
			return nil, err
		}
		space := eatss.PaperSpace(k)
		for _, gn := range sweepGPUs {
			g, err := eatss.GPUByName(gn)
			if err != nil {
				return nil, err
			}
			for _, interactive := range []bool{false, true} {
				mode := "exhaustive"
				if interactive {
					mode = "interactive"
				}
				w.pool = append(w.pool, sweepInput{
					key: name + "|" + gn + "|" + mode, kernel: k, gpu: g, space: space, interactive: interactive,
				})
			}
		}
	}
	return w, nil
}

func (w *sweepBench) fill(g *golden) {
	g.Sweep = make(map[string]sweepOut, len(w.pool))
	for _, in := range w.pool {
		g.Sweep[in.key] = sweepSummary(in.explore(2))
	}
}

// gate replays a sample of each interactive space's prune certificates
// through the independent certifier.
func (w *sweepBench) gate(o *outcome) {
	for _, in := range w.pool {
		if in.interactive {
			w.certifyPrunes(in, o)
		}
	}
}

// check compares one sweep's summary with the golden file.
func (w *sweepBench) check(o *outcome, key string, got sweepOut) {
	o.attempted++
	if want, ok := w.gold.Sweep[key]; !ok || !got.equal(want) {
		o.fail("sweep %s: got %+v, golden %+v", key, got, want)
	}
}

func (w *sweepBench) certifyPrunes(in sweepInput, o *outcome) {
	p, err := eatss.Analyze(in.kernel, nil)
	if err != nil {
		o.fail("sweep %s: %v", in.key, err)
		return
	}
	region := p.FeasibleRegion(in.gpu, in.cfg())
	pruned := 0
	for _, tiles := range in.space {
		cert := region.Check(tiles)
		if cert == nil {
			continue
		}
		if pruned%pruneSample == 0 {
			o.attempted++
			if cerr := eatss.CertifyPrune(in.kernel, in.kernel.Params, in.gpu, eatss.SweepPruneConfig(eatss.FP64), cert); cerr != nil {
				o.fail("sweep %s: prune of %v: %v", in.key, tiles, cerr)
			}
		}
		pruned++
	}
}

// A pass is 16 sweeps of 1 to 170 ms, about a second, so a run's three
// hundred sweeps admit a p90. Throughput counts every point of each
// space, pruned or not, so pruning shows as speed.
func (w *sweepBench) run(d time.Duration, o *outcome) {
	lr := closedLoop(w.rng, len(w.pool), d, w.points,
		func(i int) sweepOut { return sweepSummary(w.pool[i].explore(2)) },
		func(i int, got sweepOut) { w.check(o, w.pool[i].key, got) })
	o.put(lr, 0.90)
}

func (w *sweepBench) points(i int) float64 { return float64(len(w.pool[i].space)) }

// sweepTrace accumulates a traced sweep run.
type sweepTrace struct {
	w1Wall, w2Wall, directWall time.Duration
	points                     int
	modeWall                   [2]time.Duration // by interactive
	modePoints                 [2]int
	pruned, kept, residual     int
	evaluated, skipped         int
}

// runTraced runs every sweep three ways: the public engine with two
// workers and with one, and a direct traced loop over the same points.
// The three must agree point for point.
func (w *sweepBench) runTraced(d time.Duration, tr *tracer, o *outcome) {
	var st sweepTrace
	var ru runtimeUse
	ru.begin()
	closedLoop(w.rng, len(w.pool), d, w.points,
		func(i int) bool {
			in := w.pool[i]
			mode := 0
			if in.interactive {
				mode = 1
			}
			var pts2, pts1 []eatss.SpacePoint
			var st2, st1 eatss.ExploreStats
			t0 := time.Now()
			ru.measure(func() { pts2, st2 = in.explore(2) })
			t1 := time.Now()
			pts1, st1 = in.explore(1)
			t2 := time.Now()
			ptsD, stD := st.direct(tr, in)
			t3 := time.Now()
			st.w2Wall += t1.Sub(t0)
			st.w1Wall += t2.Sub(t1)
			st.directWall += t3.Sub(t2)
			st.modeWall[mode] += t1.Sub(t0)
			st.modePoints[mode] += len(in.space)
			st.points += len(in.space)
			w.check(o, in.key, sweepSummary(pts2, st2))
			ok := st1 == st2 && reflect.DeepEqual(pts1, pts2) &&
				stD == (eatss.ExploreStats{Evaluated: st2.Evaluated, Pruned: st2.Pruned, Skipped: st2.Skipped,
					Symbolic: st2.Symbolic, Residual: st2.Residual}) &&
				reflect.DeepEqual(ptsD, pts2)
			return ok
		},
		func(i int, ok bool) {
			if !ok {
				o.fail("sweep %s: the two-worker, one-worker and traced sweeps disagree", w.pool[i].key)
			}
		})
	m := o.metrics
	m["analysis.analyze_us"] = tr.perCall("analysis.analyze", time.Microsecond)
	m["feas.derive_us"] = tr.perCall("feas.derive", time.Microsecond)
	m["feas.check_ns"] = tr.perCall("feas.check", time.Nanosecond)
	m["feas.prune_frac"] = ratio(float64(st.pruned), float64(st.modePoints[1]))
	m["symbolic.derive_us"] = tr.perCall("symbolic.derive", time.Microsecond)
	m["symbolic.eval_us"] = tr.perCall("symbolic.eval", time.Microsecond)
	m["symbolic.residual_frac"] = ratio(float64(st.residual), float64(st.kept))
	m["ppcg.compile_us"] = tr.perCall("ppcg.compile", time.Microsecond)
	m["gpusim.simulate_us"] = tr.perCall("gpusim.simulate", time.Microsecond)
	layers := tr.opWall - tr.opSelf
	m["sweep.engine_us_per_point"] = ratio(float64(st.w1Wall-layers)/float64(time.Microsecond), float64(st.points))
	m["sweep.parallel_efficiency"] = ratio(float64(st.w1Wall), 2*float64(st.w2Wall))
	m["sweep.exhaustive_points_per_sec"] = ratio(float64(st.modePoints[0]), st.modeWall[0].Seconds())
	m["sweep.interactive_points_per_sec"] = ratio(float64(st.modePoints[1]), st.modeWall[1].Seconds())
	m["trace.coverage_frac"] = tr.coverage()
	m["trace.overhead_frac"] = ratio(float64(st.directWall), float64(st.w1Wall)) - 1
	ru.put(m)
	o.count("sweep.evaluated", int64(st.evaluated))
	o.count("sweep.pruned", int64(st.pruned))
	o.count("sweep.skipped", int64(st.skipped))
	o.count("sweep.residual", int64(st.residual))
}

// direct sweeps in.space point by point through traced layer calls, in
// the order the sweep engine makes them, and returns what the engine
// would: evaluated points in input order and the point counts.
func (st *sweepTrace) direct(tr *tracer, in sweepInput) ([]eatss.SpacePoint, eatss.ExploreStats) {
	tr.beginOp()
	defer tr.endOp()
	var stats eatss.ExploreStats
	s := tr.begin("analysis.analyze")
	prog := analysis.Analyze(in.kernel, nil)
	tr.end(s)
	opts := codegen.Options{UseShared: true, Precision: eatss.FP64}
	space := in.space
	var plan *symbolic.Plan
	var planErr error
	if in.interactive {
		s = tr.begin("feas.derive")
		region := feas.Derive(prog, in.gpu, feas.SweepConfig(eatss.FP64))
		tr.end(s)
		s = tr.begin("feas.check")
		kept := make([]map[string]int64, 0, len(space))
		for _, tiles := range space {
			if region.Check(tiles) == nil {
				kept = append(kept, tiles)
			}
		}
		tr.endCalls(s, len(space))
		stats.Pruned = len(space) - len(kept)
		space = kept
		s = tr.begin("symbolic.derive")
		plan, planErr = symbolic.Derive(prog, in.gpu, symbolic.Config{UseShared: true, Precision: eatss.FP64}, nil)
		tr.end(s)
	}
	var out []eatss.SpacePoint
	for _, tiles := range space {
		var res eatss.Result
		var err error
		closedForm := false
		if in.interactive && planErr == nil {
			s := tr.begin("symbolic.eval")
			res, err = plan.Eval(tiles)
			tr.end(s)
			closedForm = err == nil || !errors.Is(err, symbolic.ErrResidual)
			if closedForm {
				stats.Symbolic++
			}
		}
		if !closedForm {
			if in.interactive {
				stats.Residual++
			}
			res, err = compileSimulate(tr, prog, in.gpu, tiles, opts)
		}
		if err != nil {
			stats.Skipped++
			continue
		}
		out = append(out, eatss.SpacePoint{Tiles: maps.Clone(tiles), Result: res})
	}
	stats.Evaluated = len(out)
	st.evaluated += stats.Evaluated
	st.skipped += stats.Skipped
	st.pruned += stats.Pruned
	st.residual += stats.Residual
	if in.interactive {
		st.kept += len(space)
	}
	return out, stats
}
