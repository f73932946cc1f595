package eatss

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/obs"
)

// selectBestSerial is the protocol as one serial loop over the
// shared-memory splits: the reference the concurrent selectBestAnalyzed
// must reproduce field for field, spans included.
func selectBestSerial(ctx context.Context, prog *analysis.Program, g *arch.GPU, prec Precision, eval Evaluator) (*Best, error) {
	k := prog.Kernel
	ctx, root := obs.Start(ctx, "eatss.select_best")
	defer root.End()
	best := &Best{Kernel: k.Name, GPU: g.Name}
	for _, split := range SharedSplits {
		cctx, csp := obs.Start(ctx, "eatss.candidate")
		csp.SetFloat("split", split)
		var sel *Selection
		var err error
		staticSkips := 0
		for _, wf := range WarpFractions {
			if cert := feas.Cached(prog, g, feas.ModelConfig(split, wf, prec)).Empty; cert != nil {
				staticSkips++
				err = fmt.Errorf("split %.2f, warpfrac %.3f statically infeasible: %s", split, wf, cert)
				continue
			}
			sel, err = core.SelectTilesAnalyzed(cctx, prog, g, Options{
				SplitFactor:      split,
				WarpFraction:     wf,
				Precision:        prec,
				ProblemSizeAware: true,
			})
			if err == nil {
				break
			}
		}
		if staticSkips > 0 {
			csp.SetInt("static_skips", int64(staticSkips))
		}
		if err != nil {
			best.InfeasibleSplits++
			csp.SetBool("infeasible", true)
			csp.End()
			continue
		}
		best.SolverCalls += sel.SolverCalls
		best.SolveTime += sel.SolveTime
		res, info, err := evalAnalyzed(cctx, prog, g, sel.Tiles, RunConfig{
			UseShared: split > 0,
			Precision: prec,
			Evaluator: eval,
		})
		csp.SetBool("symbolic", info.Symbolic)
		if info.Residual {
			best.Residual++
			csp.SetBool("residual", true)
		}
		if err != nil {
			best.Skipped++
			csp.SetStr("map_error", err.Error())
			csp.End()
			continue
		}
		csp.End()
		best.Candidates = append(best.Candidates, Candidate{Selection: sel, Result: res, SharedFrac: split})
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
	return best, nil
}

// bestDiff describes the first difference between two protocol
// outcomes, durations aside, or returns "" when they agree.
func bestDiff(want *Best, werr error, got *Best, gerr error) string {
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		return fmt.Sprintf("error %v, want %v", gerr, werr)
	}
	if werr != nil {
		return ""
	}
	if got.Kernel != want.Kernel || got.GPU != want.GPU {
		return fmt.Sprintf("labelled %s/%s, want %s/%s", got.Kernel, got.GPU, want.Kernel, want.GPU)
	}
	if got.SolverCalls != want.SolverCalls || got.InfeasibleSplits != want.InfeasibleSplits ||
		got.Skipped != want.Skipped || got.Residual != want.Residual {
		return fmt.Sprintf("counters (calls %d, infeasible %d, skipped %d, residual %d), want (%d, %d, %d, %d)",
			got.SolverCalls, got.InfeasibleSplits, got.Skipped, got.Residual,
			want.SolverCalls, want.InfeasibleSplits, want.Skipped, want.Residual)
	}
	if len(got.Candidates) != len(want.Candidates) {
		return fmt.Sprintf("%d candidates, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i, w := range want.Candidates {
		if d := candidateDiff(w, got.Candidates[i]); d != "" {
			return fmt.Sprintf("candidate %d: %s", i, d)
		}
	}
	if d := candidateDiff(want.Chosen, got.Chosen); d != "" {
		return "chosen: " + d
	}
	return ""
}

func candidateDiff(w, g Candidate) string {
	switch {
	case g.SharedFrac != w.SharedFrac:
		return fmt.Sprintf("split %g, want %g", g.SharedFrac, w.SharedFrac)
	case !reflect.DeepEqual(g.Selection.Tiles, w.Selection.Tiles):
		return fmt.Sprintf("tiles %v, want %v", g.Selection.Tiles, w.Selection.Tiles)
	case g.Selection.Objective != w.Selection.Objective || g.Selection.Opts != w.Selection.Opts ||
		g.Selection.SolverCalls != w.Selection.SolverCalls:
		return fmt.Sprintf("objective %d opts %+v calls %d, want %d %+v %d",
			g.Selection.Objective, g.Selection.Opts, g.Selection.SolverCalls,
			w.Selection.Objective, w.Selection.Opts, w.Selection.SolverCalls)
	case !reflect.DeepEqual(g.Result, w.Result):
		return fmt.Sprintf("result PPW %g, want %g", g.Result.PPW, w.Result.PPW)
	}
	return ""
}

// candidateSpans returns the attributes the protocol records per split
// on the eatss.candidate children of the one eatss.select_best span in
// tr, keyed by the child's split attribute.
func candidateSpans(t *testing.T, tr *obs.Trace) map[float64]map[string]any {
	t.Helper()
	if n := tr.Dropped(); n != 0 {
		t.Fatalf("trace dropped %d spans", n)
	}
	spans := tr.Snapshot()
	var roots []*obs.Span
	for _, sp := range spans {
		if sp.Name == "eatss.select_best" {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("%d eatss.select_best spans, want 1", len(roots))
	}
	out := make(map[float64]map[string]any)
	for _, sp := range spans {
		if sp.Name != "eatss.candidate" || sp.Parent != roots[0].ID {
			continue
		}
		split, ok := sp.Attr("split")
		if !ok {
			t.Fatal("eatss.candidate span without a split attribute")
		}
		if _, dup := out[split.FloatV]; dup {
			t.Fatalf("two eatss.candidate spans for split %g", split.FloatV)
		}
		attrs := make(map[string]any)
		for _, key := range []string{"static_skips", "infeasible", "map_error", "residual"} {
			if a, ok := sp.Attr(key); ok {
				attrs[key] = a.Value()
			}
		}
		out[split.FloatV] = attrs
	}
	if len(out) != len(SharedSplits) {
		t.Fatalf("%d eatss.candidate children, want one per split (%d)", len(out), len(SharedSplits))
	}
	return out
}

// TestSelectBestConcurrentParity pins the concurrent protocol to the
// serial loop over every catalog kernel, three GPUs, both precisions and
// both evaluation backends: same candidates in split order, same chosen
// configuration, same counters and error text, and one candidate span
// per split recording the same outcome. The catalog on the stock GPUs
// never leaves a split infeasible, so two edge inputs cover that
// path: the catalog on a GA100 with 4 kB of L1 and shared memory per SM,
// and a recurrence with no parallel loop, for which every split fails.
func TestSelectBestConcurrentParity(t *testing.T) {
	type input struct {
		k    *AffineKernel
		g    *arch.GPU
		prec Precision
		eval Evaluator
	}
	var inputs []input
	starved := arch.GA100()
	starved.Name = "GA100-4kB-L1"
	starved.L1SharedBytes = 4096
	for _, name := range Kernels() {
		k := mustKernel(t, name)
		for _, g := range []*arch.GPU{arch.GA100(), arch.Xavier(), arch.V100()} {
			for _, prec := range []Precision{FP32, FP64} {
				for _, eval := range []Evaluator{EvalSimulate, EvalSymbolic} {
					inputs = append(inputs, input{k, g, prec, eval})
				}
			}
		}
		inputs = append(inputs, input{k, starved, FP64, EvalSimulate})
	}
	rec, err := ParseKernel(`kernel rec {
  param N = 1000
  array A[N]
  nest s {
    for i in 1..N {
      S0: A[i] = A[i-1] + A[i]
    }
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{rec, arch.GA100(), FP64, EvalSimulate})

	obs.Reset()
	obs.EnableMetrics()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	ctx := context.Background()
	infeasible, failed := 0, 0
	for _, in := range inputs {
		id := fmt.Sprintf("%s/%s/%v/%v", in.k.Name, in.g.Name, in.prec, in.eval)
		wctx, wtr := obs.StartTrace(ctx, id+"/serial")
		want, werr := selectBestSerial(wctx, analysis.AnalyzeCtx(wctx, in.k, nil), in.g, in.prec, in.eval)
		wantSpans := candidateSpans(t, wtr)
		gctx, gtr := obs.StartTrace(ctx, id+"/concurrent")
		got, gerr := selectBestAnalyzed(gctx, analysis.AnalyzeCtx(gctx, in.k, nil), in.g, in.prec, in.eval)
		gotSpans := candidateSpans(t, gtr)
		if d := bestDiff(want, werr, got, gerr); d != "" {
			t.Errorf("%s: %s", id, d)
		}
		if !reflect.DeepEqual(gotSpans, wantSpans) {
			t.Errorf("%s: candidate spans %v, want %v", id, gotSpans, wantSpans)
		}
		switch {
		case werr != nil:
			failed++
		case want.InfeasibleSplits > 0:
			infeasible++
		}
	}
	if infeasible == 0 || failed == 0 {
		t.Fatalf("%d runs with an infeasible split and %d failed runs; the edge inputs should give both", infeasible, failed)
	}
}

// cancelAfter is a live context that cancels itself on the (n+1)-th call
// of Err, so a sweep over n interrupts a run at each of its cancellation
// polls in turn.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	n      int64
}

func newCancelAfter(n int64) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAfter{Context: ctx, cancel: cancel, n: n}
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSelectBestCancelNeverPartial interrupts gemm/GA100/FP64 at every
// point from its first to its 401st cancellation poll: each run must
// return either the uncancelled answer or an error wrapping
// context.Canceled, never a shorter Best with a nil error.
func TestSelectBestCancelNeverPartial(t *testing.T) {
	k := mustKernel(t, "gemm")
	g := arch.GA100()
	run := func(ctx context.Context) (*Best, error) {
		p, err := Analyze(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.SelectBestEval(ctx, g, FP64, EvalSimulate)
	}
	want, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, full := 0, 0
	for n := int64(0); n <= 400; n++ {
		ctx := newCancelAfter(n)
		got, err := run(ctx)
		ctx.cancel()
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel after %d polls: error %v does not wrap context.Canceled", n, err)
			}
			if got != nil {
				t.Fatalf("cancel after %d polls: a Best alongside error %v", n, err)
			}
			cancelled++
		default:
			if d := bestDiff(want, nil, got, nil); d != "" {
				t.Fatalf("cancel after %d polls: nil error but %s", n, d)
			}
			full++
		}
	}
	if cancelled == 0 {
		t.Fatal("no run was interrupted")
	}
	t.Logf("%d runs interrupted, %d ran to completion", cancelled, full)
}

// TestSelectBestCancelLeavesNoGoroutine checks that the split goroutines
// of a cancelled SelectBestEval are gone once it returns.
func TestSelectBestCancelLeavesNoGoroutine(t *testing.T) {
	k := mustKernel(t, "gemm")
	before := runtime.NumGoroutine()
	p, err := Analyze(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 5, 20, 60, 100} {
		ctx := newCancelAfter(n)
		_, err := p.SelectBestEval(ctx, arch.GA100(), FP64, EvalSimulate)
		ctx.cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d polls: error %v, want context.Canceled", n, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after cancelled runs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentFanOutRepanicsOnCaller pins fanOut's contract: every
// task runs to completion before fanOut returns or panics, and a task's
// panic resurfaces on the calling goroutine with its original value, the
// lowest-indexed task's if several panicked.
func TestConcurrentFanOutRepanicsOnCaller(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		panics map[int]any
		want   any
	}{
		{"none", nil, nil},
		{"inline task", map[int]any{0: "task 0"}, "task 0"},
		{"goroutine task", map[int]any{2: errBoom}, errBoom},
		{"lowest index wins", map[int]any{3: "task 3", 1: "task 1"}, "task 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			var done [n]atomic.Bool
			got := func() (p any) {
				defer func() { p = recover() }()
				fanOut(n, func(i int) {
					defer done[i].Store(true)
					if v, ok := tc.panics[i]; ok {
						panic(v)
					}
				})
				return nil
			}()
			if got != tc.want {
				t.Fatalf("recovered %v, want %v", got, tc.want)
			}
			for i := range done {
				if !done[i].Load() {
					t.Errorf("task %d had not finished when fanOut returned", i)
				}
			}
		})
	}
	fanOut(0, func(int) { t.Fatal("fanOut(0) ran a task") })
}
