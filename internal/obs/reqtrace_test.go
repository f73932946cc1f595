package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestStartTraceCollectsSpanTree: spans opened under a traced context
// land in that request's Trace, and a context without one records
// nothing.
func TestStartTraceCollectsSpanTree(t *testing.T) {
	EnableMetrics()
	defer Disable()
	Reset()

	ctx, tr := StartTrace(context.Background(), "req1")
	if tr == nil || tr.ID() != "req1" {
		t.Fatalf("StartTrace returned %v", tr)
	}
	ctx, root := Start(ctx, "serve.request")
	root.SetStr("op", "solve")
	cctx, child := Start(ctx, "core.select_tiles")
	_, gc := Start(cctx, "core.solve")
	gc.End()
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("trace holds %d spans, want 3", len(spans))
	}
	byName := map[string]*Span{}
	for _, sp := range spans {
		if sp.TraceID != "req1" {
			t.Fatalf("span %s carries trace %q, want req1", sp.Name, sp.TraceID)
		}
		byName[sp.Name] = sp
	}
	if byName["core.select_tiles"].Parent != byName["serve.request"].ID ||
		byName["core.solve"].Parent != byName["core.select_tiles"].ID {
		t.Fatalf("parentage wrong: %+v", spans)
	}
	if a, ok := byName["serve.request"].Attr("op"); !ok || a.StrV != "solve" {
		t.Fatal("root span lost its attributes in the snapshot")
	}
	if _, sp := Start(context.Background(), "untraced"); sp != nil {
		t.Fatal("Start recorded a span outside any trace")
	}
}

// TestTraceIsolation: two concurrent traced requests never see each
// other's spans, even with concurrent producers inside each.
func TestTraceIsolation(t *testing.T) {
	EnableMetrics()
	defer Disable()
	Reset()

	var wg sync.WaitGroup
	traces := make([]*Trace, 8)
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, tr := StartTrace(context.Background(), fmt.Sprintf("iso%d", i))
			traces[i] = tr
			ctx, root := Start(ctx, "serve.request")
			var inner sync.WaitGroup
			for w := 0; w < 4; w++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					_, sp := Start(ctx, "sweep.worker")
					sp.End()
				}()
			}
			inner.Wait()
			root.End()
		}(i)
	}
	wg.Wait()
	for i, tr := range traces {
		spans := tr.Snapshot()
		if len(spans) != 5 {
			t.Fatalf("trace %d holds %d spans, want 5", i, len(spans))
		}
		for _, sp := range spans {
			if sp.TraceID != fmt.Sprintf("iso%d", i) {
				t.Fatalf("trace %d holds foreign span %q/%q", i, sp.Name, sp.TraceID)
			}
		}
	}
}

// TestTraceSnapshotShowsUnfinishedSpans: a span still running at
// snapshot time (the detached-coalesced-work case) appears as a
// placeholder with no end time rather than vanishing or racing.
func TestTraceSnapshotShowsUnfinishedSpans(t *testing.T) {
	EnableMetrics()
	defer Disable()

	ctx, tr := StartTrace(context.Background(), "part")
	ctx, root := Start(ctx, "serve.request")
	_, hang := Start(ctx, "core.solve")
	root.End() // root finishes while core.solve is still open

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("trace holds %d spans, want 2", len(spans))
	}
	var open *Span
	for _, sp := range spans {
		if sp.Name == "core.solve" {
			open = sp
		}
	}
	if open == nil || !open.EndAt.IsZero() || open.Duration() != 0 {
		t.Fatalf("unfinished span misrepresented: %+v", open)
	}
	hang.End()
	spans = tr.Snapshot()
	for _, sp := range spans {
		if sp.Name == "core.solve" && sp.EndAt.IsZero() {
			t.Fatal("span still unfinished in trace after End")
		}
	}
}

// TestTraceSpanCap: one request cannot grow its trace without bound.
func TestTraceSpanCap(t *testing.T) {
	EnableMetrics()
	defer Disable()

	ctx, tr := StartTrace(context.Background(), "big")
	const extra = 10
	for i := 0; i < maxTraceSpans+extra; i++ {
		_, sp := Start(ctx, "eatss.candidate")
		sp.End()
	}
	if got := tr.SpanCount(); got != maxTraceSpans {
		t.Fatalf("trace holds %d spans, want cap %d", got, maxTraceSpans)
	}
	if got := tr.Dropped(); got != extra {
		t.Fatalf("dropped = %d, want %d", got, extra)
	}
	if got := len(tr.Snapshot()); got != maxTraceSpans {
		t.Fatalf("snapshot holds %d spans, want %d", got, maxTraceSpans)
	}
}

// TestTracingDisabledDaemonPathDoesNotAllocate extends the zero-alloc
// gate to the serving configuration: metrics enabled, no per-request
// trace in the context. Every Start on that path must
// return the nil span without allocating — this is what every sweep
// evaluation pays when eatssd runs with -no-request-traces.
func TestTracingDisabledDaemonPathDoesNotAllocate(t *testing.T) {
	EnableMetrics()
	defer Disable()

	ctx := context.WithValue(context.Background(), struct{ k string }{"app"}, "v")
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := Start(ctx, "gpusim.simulate")
		sp.SetInt("points", 1)
		sp.End()
		if sp != nil || ctx2 == nil {
			t.Fatal("daemon path created a span without a sink")
		}
	})
	if allocs != 0 {
		t.Fatalf("metrics-on/tracing-off Start allocates %.1f per call, want 0", allocs)
	}

	// A disabled layer must also make StartTrace free.
	Disable()
	allocs = testing.AllocsPerRun(1000, func() {
		ctx2, tr := StartTrace(ctx, "id")
		if tr != nil || ctx2 == nil {
			t.Fatal("disabled StartTrace returned a trace")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled StartTrace allocates %.1f per call, want 0", allocs)
	}
}
