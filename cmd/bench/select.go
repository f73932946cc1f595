package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	eatss "repro"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/gpusim"
	"repro/internal/parser"
	"repro/internal/ppcg"
)

// gpuNames are the machine presets select-catalog and serve-mixed draw
// from.
var gpuNames = []string{"ga100", "xavier", "v100"}

// sizeDraws are select-catalog's problem-size draws per kernel: the
// defaults, the STANDARD dataset, and the defaults divided by 2 and by 4.
var sizeDraws = []string{"default", "standard", "half", "quarter"}

// drawParams returns the problem sizes of one draw (nil keeps the
// kernel's defaults).
func drawParams(k *eatss.AffineKernel, draw string) (map[string]int64, error) {
	switch draw {
	case "default":
		return nil, nil
	case "standard":
		return eatss.StandardParams(k.Name)
	case "half":
		return scaleParams(k.Params, [2]int64{1, 2}), nil
	default: // "quarter"
		return scaleParams(k.Params, [2]int64{1, 4}), nil
	}
}

// scaleParams multiplies every size by sc[0]/sc[1], floored at 32, or at
// the size itself when that is smaller, so time-step counts and small
// extents stay meaningful.
func scaleParams(params map[string]int64, sc [2]int64) map[string]int64 {
	out := make(map[string]int64, len(params))
	for name, v := range params {
		s := v * sc[0] / sc[1]
		if s < 32 {
			s = min(v, 32)
		}
		out[name] = s
	}
	return out
}

// errorClass reduces a pipeline error to the class the golden file
// records.
func errorClass(err error) string {
	msg := err.Error()
	for _, c := range []string{"no feasible configuration", "unsatisfiable", "statically infeasible"} {
		if strings.Contains(msg, c) {
			return c
		}
	}
	return "error: " + msg
}

// searchCounts tallies the solver-side work of traced ops.
type searchCounts struct {
	ops          int
	formulations int // (split, warp fraction) formulations considered
	staticSkips  int // formulations feas proved empty, so never solved
	solves       int // SelectTilesAnalyzed calls
	unsat        int
	nodes        int64 // search nodes of satisfiable solves
	solverCalls  int
	satSolveTime time.Duration
}

// solve runs one traced SelectTilesAnalyzed call and tallies it.
func (c *searchCounts) solve(tr *tracer, prog *analysis.Program, g *eatss.GPU, opts core.Options) (*core.Selection, error) {
	s := tr.begin("core.select_tiles")
	sel, err := core.SelectTilesAnalyzed(context.Background(), prog, g, opts)
	tr.end(s)
	c.solves++
	if err != nil {
		c.unsat++
		return nil, err
	}
	c.nodes += sel.Search.Nodes
	c.solverCalls += sel.SolverCalls
	c.satSolveTime += tr.dur(s)
	return sel, nil
}

// put stores the layer and search metrics of the select workloads and the
// counts the determinism test compares.
func (c *searchCounts) put(tr *tracer, o *outcome) {
	m := o.metrics
	m["parser.parse_us"] = tr.perCall("parser.parse", time.Microsecond)
	m["analysis.analyze_us"] = tr.perCall("analysis.analyze", time.Microsecond)
	m["feas.derive_us"] = tr.perCall("feas.derive", time.Microsecond)
	m["ppcg.compile_us"] = tr.perCall("ppcg.compile", time.Microsecond)
	m["gpusim.simulate_us"] = tr.perCall("gpusim.simulate", time.Microsecond)
	m["core.select_tiles_ms"] = tr.perCall("core.select_tiles", time.Millisecond)
	m["core.calls_per_select"] = ratio(float64(c.solves), float64(c.ops))
	m["core.unsat_frac"] = ratio(float64(c.unsat), float64(c.solves))
	sat := float64(c.solves - c.unsat)
	m["smt.nodes_per_solve"] = ratio(float64(c.nodes), sat)
	m["smt.solver_calls_per_solve"] = ratio(float64(c.solverCalls), sat)
	m["smt.nodes_per_ms"] = ratio(float64(c.nodes), float64(c.satSolveTime)/float64(time.Millisecond))
	m["feas.static_skip_frac"] = ratio(float64(c.staticSkips), float64(c.formulations))
	o.count("smt.nodes", c.nodes)
	o.count("smt.solver_calls", int64(c.solverCalls))
	o.count("core.solves", int64(c.solves))
	o.count("core.unsat", int64(c.unsat))
	o.count("feas.static_skips", int64(c.staticSkips))
}

// runTracedSelects runs every op twice, through the public path (timed,
// its allocations charged) and through traced layer calls, checks both
// answers, and stores the layer ledger.
func runTracedSelects(d time.Duration, tr *tracer, o *outcome, r *rand.Rand, n int,
	public func(i int) selectOut, traced func(i int, c *searchCounts) selectOut,
	check func(i int, public, traced selectOut)) {
	var c searchCounts
	var ru runtimeUse
	var publicWall, tracedWall time.Duration
	ru.begin()
	closedLoop(r, n, d, oneEach,
		func(i int) [2]selectOut {
			var pub selectOut
			t0 := time.Now()
			ru.measure(func() { pub = public(i) })
			t1 := time.Now()
			dir := traced(i, &c)
			publicWall += t1.Sub(t0)
			tracedWall += time.Since(t1)
			return [2]selectOut{pub, dir}
		},
		func(i int, got [2]selectOut) { check(i, got[0], got[1]) })
	c.put(tr, o)
	o.metrics["trace.coverage_frac"] = tr.coverage()
	o.metrics["trace.overhead_frac"] = ratio(float64(tracedWall), float64(publicWall)) - 1
	ru.put(o.metrics)
}

// selectInput is one select-catalog input.
type selectInput struct {
	key    string // kernel|gpu|draw
	kernel *eatss.AffineKernel
	gpu    *eatss.GPU
	params map[string]int64
}

// selectCatalog runs the paper's protocol as a user runs it: a fresh
// Analyze and SelectBestEval per input.
type selectCatalog struct {
	pool []selectInput
	gold *golden
	rng  *rand.Rand
}

// setupSelectCatalog pools every (kernel, GPU, size draw) whose kernel
// and sizes are distinct; a draw that lands on another's sizes (floored
// sizes coincide on small kernels) would measure the same input twice.
func setupSelectCatalog(e *env) (runner, error) {
	w := &selectCatalog{gold: e.golden, rng: e.rng(1)}
	seen := make(map[string]bool)
	for _, name := range eatss.Kernels() {
		k, err := eatss.Kernel(name)
		if err != nil {
			return nil, err
		}
		for _, gn := range gpuNames {
			g, err := eatss.GPUByName(gn)
			if err != nil {
				return nil, err
			}
			for _, draw := range sizeDraws {
				params, err := drawParams(k, draw)
				if err != nil {
					return nil, err
				}
				id := gn + "|" + eatss.FingerprintKernel(k, params)
				if seen[id] {
					continue
				}
				seen[id] = true
				w.pool = append(w.pool, selectInput{
					key: name + "|" + gn + "|" + draw, kernel: k, gpu: g, params: params,
				})
			}
		}
	}
	return w, nil
}

// selectBest is the public path of one op.
func (in selectInput) selectBest() (*eatss.Best, *eatss.Program, error) {
	p, err := eatss.Analyze(in.kernel, in.params)
	if err != nil {
		return nil, nil, err
	}
	b, err := p.SelectBestEval(context.Background(), in.gpu, eatss.FP64, eatss.EvalSimulate)
	return b, p, err
}

// answer runs the public path and reduces it to its golden view.
func (in selectInput) answer() selectOut {
	b, _, err := in.selectBest()
	return bestOut(b, err)
}

func bestOut(b *eatss.Best, err error) selectOut {
	if err != nil {
		return selectOut{Error: errorClass(err)}
	}
	c := b.Chosen
	return selectOut{Tiles: c.Selection.Tiles, Objective: c.Selection.Objective, PPW: c.Result.PPW}
}

// paperWalkthrough is the gemm/GA100 selection printed in the paper
// (Sec. IV): Ti=16, Tj=384, Tk=16 with objective 18432.
var paperWalkthrough = selectOut{Tiles: map[string]int64{"i": 16, "j": 384, "k": 16}, Objective: 18432}

func walkthrough() selectOut {
	sel, err := eatss.SelectTiles(eatss.MustKernel("gemm"), eatss.GA100(), eatss.DefaultOptions())
	if err != nil {
		return selectOut{Error: errorClass(err)}
	}
	return selectOut{Tiles: sel.Tiles, Objective: sel.Objective}
}

func (w *selectCatalog) fill(g *golden) {
	g.Walkthrough = walkthrough()
	g.Select = make(map[string]selectOut, len(w.pool))
	for _, in := range w.pool {
		g.Select[in.key] = in.answer()
	}
}

// gate checks the walkthrough against the paper and the golden file, and
// replays every pooled input's candidate selections through the
// independent certifier.
func (w *selectCatalog) gate(o *outcome) {
	o.attempted++
	if got := walkthrough(); !got.equal(paperWalkthrough) || !got.equal(w.gold.Walkthrough) {
		o.fail("walkthrough: gemm/GA100 gave %+v, paper says %+v", got, paperWalkthrough)
	}
	for _, in := range w.pool {
		b, p, err := in.selectBest()
		w.check(o, in.key, bestOut(b, err), bestOut(b, err))
		if err != nil {
			continue
		}
		for _, c := range b.Candidates {
			o.attempted++
			if cerr := eatss.Certify(p.Kernel(), in.gpu, c.Selection); cerr != nil {
				o.fail("select %s split %.2f: certification: %v", in.key, c.SharedFrac, cerr)
			}
		}
	}
}

// A pass is 225 ops of about a millisecond, so a run's ten thousand ops
// admit a p99.
func (w *selectCatalog) run(d time.Duration, o *outcome) {
	lr := closedLoop(w.rng, len(w.pool), d, oneEach,
		func(i int) selectOut { return w.pool[i].answer() },
		func(i int, got selectOut) { w.check(o, w.pool[i].key, got, got) })
	o.put(lr, 0.99)
}

// check compares one op's public and traced answers with the golden
// file.
func (w *selectCatalog) check(o *outcome, key string, public, traced selectOut) {
	o.attempted++
	if want, ok := w.gold.Select[key]; !ok || !public.equal(want) || !traced.equal(public) {
		o.fail("select %s: public %+v, traced %+v, golden %+v", key, public, traced, want)
	}
}

func (w *selectCatalog) runTraced(d time.Duration, tr *tracer, o *outcome) {
	runTracedSelects(d, tr, o, w.rng, len(w.pool),
		func(i int) selectOut { return w.pool[i].answer() },
		func(i int, c *searchCounts) selectOut { return w.pool[i].traced(tr, c) },
		func(i int, public, traced selectOut) { w.check(o, w.pool[i].key, public, traced) })
}

// traced replays SelectBestEval layer by layer, in the order the public
// path calls the layers: the analysis, then per shared-memory split the
// static feasibility check and solve of each warp fraction until one is
// satisfiable, then compile and simulate of its tiles.
func (in selectInput) traced(tr *tracer, c *searchCounts) selectOut {
	tr.beginOp()
	defer tr.endOp()
	c.ops++
	s := tr.begin("analysis.analyze")
	prog, err := analyze(in.kernel, in.params)
	tr.end(s)
	if err != nil {
		return selectOut{Error: errorClass(err)}
	}
	var chosen selectOut
	found := false
	for _, split := range eatss.SharedSplits {
		var sel *core.Selection
		for _, wf := range eatss.WarpFractions {
			c.formulations++
			s := tr.begin("feas.derive")
			empty := feas.Derive(prog, in.gpu, feas.ModelConfig(split, wf, eatss.FP64)).Empty
			tr.end(s)
			if empty != nil {
				c.staticSkips++
				continue
			}
			opts := core.Options{SplitFactor: split, WarpFraction: wf, Precision: eatss.FP64, ProblemSizeAware: true}
			if sel, err = c.solve(tr, prog, in.gpu, opts); err == nil {
				break
			}
		}
		if sel == nil {
			continue
		}
		res, err := compileSimulate(tr, prog, in.gpu, sel.Tiles, codegen.Options{UseShared: split > 0, Precision: eatss.FP64})
		if err != nil {
			continue
		}
		if !found || res.PPW > chosen.PPW {
			chosen = selectOut{Tiles: sel.Tiles, Objective: sel.Objective, PPW: res.PPW}
			found = true
		}
	}
	if !found {
		return selectOut{Error: "no feasible configuration"}
	}
	return chosen
}

// analyze is eatss.Analyze without the Program wrapper: merge the
// problem sizes, validate, analyze.
func analyze(k *eatss.AffineKernel, params map[string]int64) (*analysis.Program, error) {
	kk := k
	if params != nil {
		kk = k.WithParams(params)
	}
	if err := kk.Validate(); err != nil {
		return nil, fmt.Errorf("eatss: Analyze %s: %w", k.Name, err)
	}
	return analysis.Analyze(kk, nil), nil
}

// compileSimulate is the simulate evaluation path as two traced calls.
func compileSimulate(tr *tracer, prog *analysis.Program, g *eatss.GPU, tiles map[string]int64, opts codegen.Options) (eatss.Result, error) {
	s := tr.begin("ppcg.compile")
	mk, err := ppcg.CompileAnalyzed(context.Background(), prog, nil, tiles, g, opts)
	tr.end(s)
	if err != nil {
		return eatss.Result{}, err
	}
	s = tr.begin("gpusim.simulate")
	res := gpusim.Simulate(mk, g)
	tr.end(s)
	return res, nil
}

// wideShapes are select-wide's kernels: n independent 2-D nests with
// distinct loop names, over N x N arrays. The pool is odd and its middle
// solve, n = 3 at N = 128, stands apart from its neighbours in time, so the
// median op falls inside one input's samples rather than in the gap
// between two classes. n = 3 at N >= 512 (1 to 2 s per solve) is left
// out: it would cut a run to a few passes.
var wideShapes = []struct{ n, N int }{{2, 128}, {2, 256}, {2, 512}, {3, 128}, {3, 256}}

// wideSource writes a separable DSL kernel: n nests C_n[i][j] = A_n[i][j]
// sharing no loop, so the solver's objective is a sum over independent
// variable groups.
func wideSource(n, size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel wide%d_%d {\n  param N = %d\n  array", n, size, size)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " A%d[N][N], C%d[N][N]", i, i)
	}
	b.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  nest n%[1]d {\n    for i%[1]d in 0..N\n    for j%[1]d in 0..N {\n      S%[1]d: C%[1]d[i%[1]d][j%[1]d] = A%[1]d[i%[1]d][j%[1]d]\n    }\n  }\n", i)
	}
	b.WriteString("}\n")
	return b.String()
}

type wideInput struct{ key, src string }

// selectWide parses, analyzes and solves separable kernels whose search
// grows exponentially with the number of nests.
type selectWide struct {
	pool []wideInput
	gpu  *eatss.GPU
	gold *golden
	rng  *rand.Rand
}

// setupSelectWide writes the pool's sources and checks, as for
// select-catalog, that each parses to a distinct kernel.
func setupSelectWide(e *env) (runner, error) {
	w := &selectWide{gpu: eatss.GA100(), gold: e.golden, rng: e.rng(2)}
	seen := make(map[string]bool)
	for _, s := range wideShapes {
		in := wideInput{key: fmt.Sprintf("n%d-N%d", s.n, s.N), src: wideSource(s.n, s.N)}
		k, err := eatss.ParseKernel(in.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.key, err)
		}
		fp := eatss.FingerprintKernel(k, nil)
		if seen[fp] {
			return nil, fmt.Errorf("%s duplicates another pooled kernel", in.key)
		}
		seen[fp] = true
		w.pool = append(w.pool, in)
	}
	return w, nil
}

// selectTiles is the public path of one op.
func (w *selectWide) selectTiles(in wideInput) (*eatss.Selection, *eatss.Program, error) {
	k, err := eatss.ParseKernel(in.src)
	if err != nil {
		return nil, nil, err
	}
	p, err := eatss.Analyze(k, nil)
	if err != nil {
		return nil, nil, err
	}
	sel, err := p.SelectTiles(w.gpu, eatss.DefaultOptions())
	return sel, p, err
}

// answer runs the public path and reduces it to its golden view.
func (w *selectWide) answer(in wideInput) selectOut {
	sel, _, err := w.selectTiles(in)
	return selOut(sel, err)
}

func selOut(sel *eatss.Selection, err error) selectOut {
	if err != nil {
		return selectOut{Error: errorClass(err)}
	}
	return selectOut{Tiles: sel.Tiles, Objective: sel.Objective}
}

func (w *selectWide) fill(g *golden) {
	g.Wide = make(map[string]selectOut, len(w.pool))
	for _, in := range w.pool {
		g.Wide[in.key] = w.answer(in)
	}
}

// gate replays every pooled input's selection through the independent
// certifier.
func (w *selectWide) gate(o *outcome) {
	for _, in := range w.pool {
		sel, p, err := w.selectTiles(in)
		w.check(o, in.key, selOut(sel, err), selOut(sel, err))
		if err != nil {
			continue
		}
		o.attempted++
		if cerr := eatss.Certify(p.Kernel(), w.gpu, sel); cerr != nil {
			o.fail("wide %s: certification: %v", in.key, cerr)
		}
	}
}

// A pass is five ops of 1 ms to 0.5 s, so a run's two hundred ops admit a
// p90.
func (w *selectWide) run(d time.Duration, o *outcome) {
	lr := closedLoop(w.rng, len(w.pool), d, oneEach,
		func(i int) selectOut { return w.answer(w.pool[i]) },
		func(i int, got selectOut) { w.check(o, w.pool[i].key, got, got) })
	o.put(lr, 0.90)
}

func (w *selectWide) check(o *outcome, key string, public, traced selectOut) {
	o.attempted++
	if want, ok := w.gold.Wide[key]; !ok || !public.equal(want) || !traced.equal(public) {
		o.fail("wide %s: public %+v, traced %+v, golden %+v", key, public, traced, want)
	}
}

func (w *selectWide) runTraced(d time.Duration, tr *tracer, o *outcome) {
	runTracedSelects(d, tr, o, w.rng, len(w.pool),
		func(i int) selectOut { return w.answer(w.pool[i]) },
		func(i int, c *searchCounts) selectOut { return w.traced(tr, w.pool[i], c) },
		func(i int, public, traced selectOut) { w.check(o, w.pool[i].key, public, traced) })
}

// traced replays ParseKernel, Analyze and SelectTiles as traced layer
// calls.
func (w *selectWide) traced(tr *tracer, in wideInput, c *searchCounts) selectOut {
	tr.beginOp()
	defer tr.endOp()
	c.ops++
	s := tr.begin("parser.parse")
	k, err := parser.Parse(in.src)
	tr.end(s)
	if err != nil {
		return selectOut{Error: errorClass(err)}
	}
	s = tr.begin("analysis.analyze")
	prog, err := analyze(k, nil)
	tr.end(s)
	if err != nil {
		return selectOut{Error: errorClass(err)}
	}
	return selOut(c.solve(tr, prog, w.gpu, core.DefaultOptions()))
}
