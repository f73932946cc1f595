package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// withEnabled runs fn with a clean, enabled layer and restores the
// disabled default afterwards.
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	Reset()
	EnableMetrics()
	defer func() {
		Disable()
		Reset()
	}()
	fn()
}

// traced opens a fresh trace for the test; spans are recorded only
// under one. The layer must be enabled.
func traced(t *testing.T) (context.Context, *Trace) {
	t.Helper()
	ctx, tr := StartTrace(context.Background(), t.Name())
	if tr == nil {
		t.Fatal("StartTrace returned nil while enabled")
	}
	return ctx, tr
}

// named filters spans by name, keeping their order.
func named(spans []*Span, name string) []*Span {
	var out []*Span
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func TestSpanNestingAndOrdering(t *testing.T) {
	withEnabled(t, func() {
		ctx, tr := traced(t)
		ctx, root := Start(ctx, "root")
		cctx, child := Start(ctx, "child")
		_, grand := Start(cctx, "grandchild")
		grand.End()
		child.End()
		_, sib := Start(ctx, "sibling")
		sib.End()
		root.End()

		spans := tr.Snapshot()
		if len(spans) != 4 {
			t.Fatalf("spans = %d, want 4", len(spans))
		}
		names := []string{"root", "child", "grandchild", "sibling"}
		for i, want := range names {
			if spans[i].Name != want {
				t.Fatalf("span[%d] = %q, want %q (start order)", i, spans[i].Name, want)
			}
		}
		if child.Parent != root.ID {
			t.Errorf("child.Parent = %d, want root %d", child.Parent, root.ID)
		}
		if grand.Parent != child.ID {
			t.Errorf("grandchild.Parent = %d, want child %d", grand.Parent, child.ID)
		}
		if sib.Parent != root.ID {
			t.Errorf("sibling.Parent = %d, want root %d", sib.Parent, root.ID)
		}
		if root.Parent != 0 {
			t.Errorf("root.Parent = %d, want 0", root.Parent)
		}
		for _, sp := range spans {
			if sp.EndAt.Before(sp.StartAt) {
				t.Errorf("span %s ends before it starts", sp.Name)
			}
		}
	})
}

func TestSpanAttrs(t *testing.T) {
	withEnabled(t, func() {
		ctx, _ := traced(t)
		_, sp := Start(ctx, "x")
		sp.SetInt("i", 7)
		sp.SetFloat("f", 2.5)
		sp.SetStr("s", "hello")
		sp.SetBool("b", true)
		sp.SetInt("i", 9) // later value wins in Attr()
		sp.End()
		if a, ok := sp.Attr("i"); !ok || a.IntV != 9 {
			t.Errorf("Attr(i) = %+v, %v", a, ok)
		}
		if a, ok := sp.Attr("f"); !ok || a.FloatV != 2.5 {
			t.Errorf("Attr(f) = %+v, %v", a, ok)
		}
		if a, ok := sp.Attr("s"); !ok || a.StrV != "hello" {
			t.Errorf("Attr(s) = %+v, %v", a, ok)
		}
		if a, ok := sp.Attr("b"); !ok || a.Value() != true {
			t.Errorf("Attr(b) = %+v, %v", a, ok)
		}
		if _, ok := sp.Attr("missing"); ok {
			t.Error("Attr(missing) found")
		}
	})
}

func TestDisabledFastPath(t *testing.T) {
	EnableMetrics()
	ctx, tr := traced(t)
	Disable()
	Reset()
	ctx2, sp := Start(ctx, "never")
	if sp != nil {
		t.Fatal("Start returned a span while disabled")
	}
	if ctx2 != ctx {
		t.Fatal("Start derived a new context while disabled")
	}
	// Every method must be a safe no-op on the nil span.
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1)
	sp.SetStr("k", "v")
	sp.SetBool("k", true)
	sp.Set(Int("k", 1))
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("recorded %d spans while disabled", n)
	}
	c := NewCounter("test.disabled_counter")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("counter advanced while disabled")
	}
}

func TestConcurrentCounters(t *testing.T) {
	withEnabled(t, func() {
		c := NewCounter("test.concurrent")
		h := NewHistogram("test.concurrent_hist", 1, 10, 100)
		g := NewGauge("test.concurrent_gauge")
		const workers, perWorker = 8, 1000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Add(1)
					h.Observe(float64(i % 150))
					g.Set(float64(w))
				}
			}(w)
		}
		wg.Wait()
		if got := c.Value(); got != workers*perWorker {
			t.Fatalf("counter = %d, want %d", got, workers*perWorker)
		}
		s := Snapshot()
		if s.Counters["test.concurrent"] != workers*perWorker {
			t.Fatalf("snapshot counter = %d", s.Counters["test.concurrent"])
		}
		hs := s.Histograms["test.concurrent_hist"]
		if hs.Count != workers*perWorker {
			t.Fatalf("histogram count = %d", hs.Count)
		}
		var total int64
		for _, n := range hs.Counts {
			total += n
		}
		if total != hs.Count {
			t.Fatalf("bucket total %d != count %d", total, hs.Count)
		}
	})
}

func TestCounterIdentity(t *testing.T) {
	a := NewCounter("test.identity")
	b := NewCounter("test.identity")
	if a != b {
		t.Fatal("NewCounter returned distinct instruments for one name")
	}
}

func TestResetClearsData(t *testing.T) {
	withEnabled(t, func() {
		c := NewCounter("test.reset")
		c.Add(3)
		Reset()
		if c.Value() != 0 {
			t.Fatal("counter survived Reset")
		}
		// The handle must remain usable.
		c.Add(2)
		if c.Value() != 2 {
			t.Fatal("counter handle broken after Reset")
		}
	})
}

func TestHistogramBuckets(t *testing.T) {
	withEnabled(t, func() {
		h := NewHistogram("test.buckets", 10, 20)
		for _, v := range []float64{5, 10, 15, 25} {
			h.Observe(v)
		}
		hs := Snapshot().Histograms["test.buckets"]
		want := []int64{2, 1, 1} // <=10: {5,10}; <=20: {15}; overflow: {25}
		for i, n := range want {
			if hs.Counts[i] != n {
				t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, hs.Counts[i], n, hs.Counts)
			}
		}
		if hs.Sum != 55 || hs.Mean() != 13.75 {
			t.Fatalf("sum=%v mean=%v", hs.Sum, hs.Mean())
		}
	})
}

// TestObsOverhead is the benchmark guard the instrumented hot paths rely
// on: with the layer disabled, a full span start/annotate/end cycle plus
// a counter, gauge and histogram update must not allocate.
func TestObsOverhead(t *testing.T) {
	Disable()
	ctx := context.Background()
	c := NewCounter("test.overhead")
	g := NewGauge("test.overhead_gauge")
	h := NewHistogram("test.overhead_hist", 1e-3, 1e-2, 0.1, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := Start(ctx, "hot")
		sp.SetInt("k", 1)
		sp.SetFloat("f", 1.5)
		sp.SetStr("s", "v")
		c.Add(1)
		g.Set(2.5)
		h.Observe(0.02)
		h.ObserveN(0.3, 4)
		sp.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f per span call, want 0", allocs)
	}
}

// TestHistogramObserveEnabledDoesNotAllocate extends the guard to the
// enabled path: a histogram observation is a bucket search plus atomic
// updates — no allocation at any enablement state.
func TestHistogramObserveEnabledDoesNotAllocate(t *testing.T) {
	withEnabled(t, func() {
		h := NewHistogram("test.enabled_hist", 1e-3, 1e-2, 0.1, 1)
		allocs := testing.AllocsPerRun(1000, func() {
			h.Observe(0.02)
			h.ObserveN(0.3, 4)
		})
		if allocs != 0 {
			t.Fatalf("enabled histogram observation allocates %.1f, want 0", allocs)
		}
	})
}

func TestSetClock(t *testing.T) {
	withEnabled(t, func() {
		base := time.Unix(1000, 0)
		tick := 0
		SetClock(func() time.Time {
			tick++
			return base.Add(time.Duration(tick) * time.Millisecond)
		})
		defer SetClock(nil)
		ctx, _ := traced(t)
		_, sp := Start(ctx, "timed")
		sp.End()
		if sp.Duration() != time.Millisecond {
			t.Fatalf("duration = %v, want 1ms", sp.Duration())
		}
	})
}

// TestConcurrentSpanProducers is the audit test for the parallel sweep
// engine: many goroutines opening span trees, annotating them, and
// updating metrics at once, with concurrent Trace.Snapshot()/Snapshot()
// readers. The contract it pins down (and -race enforces):
//
//   - Start/End on distinct spans is safe from any goroutine; the trace
//     serializes registration internally.
//   - A span's attribute setters are NOT synchronized — each span must
//     stay owned by one goroutine, which the sweep engine guarantees by
//     giving every worker its own "sweep.worker" span.
//   - Parentage is taken from the context, so concurrent children of a
//     shared parent span are safe: the parent is only read.
func TestConcurrentSpanProducers(t *testing.T) {
	EnableMetrics()
	defer Disable()
	Reset()

	c := NewCounter("obs.test.concurrent")
	h := NewHistogram("obs.test.concurrent_hist", 1, 10, 100)

	const producers = 8
	const perProducer = 50
	ctx, tr := traced(t)
	ctx, root := Start(ctx, "concurrent.root")

	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wctx, wsp := Start(ctx, "concurrent.worker")
			wsp.SetInt("worker", int64(worker))
			for i := 0; i < perProducer; i++ {
				_, sp := Start(wctx, "concurrent.item")
				sp.SetInt("i", int64(i))
				c.Add(1)
				h.Observe(float64(i))
				sp.End()
			}
			wsp.End()
		}(pi)
	}
	// Concurrent readers: snapshots must be safe while producers run.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = tr.Snapshot()
				_ = Snapshot()
			}
		}()
	}
	wg.Wait()
	root.End()

	if got := c.Value(); got != producers*perProducer {
		t.Fatalf("counter = %d, want %d", got, producers*perProducer)
	}
	spans := tr.Snapshot()
	workers := named(spans, "concurrent.worker")
	if len(workers) != producers {
		t.Fatalf("worker spans = %d, want %d", len(workers), producers)
	}
	workerIDs := make(map[uint64]bool)
	for _, w := range workers {
		if w.Parent != root.ID {
			t.Fatalf("worker parent = %d, want %d", w.Parent, root.ID)
		}
		workerIDs[w.ID] = true
	}
	items := named(spans, "concurrent.item")
	if len(items) != producers*perProducer {
		t.Fatalf("item spans = %d, want %d", len(items), producers*perProducer)
	}
	seen := make(map[uint64]bool, len(items))
	for _, it := range items {
		if !workerIDs[it.Parent] {
			t.Fatalf("item parented to %d, not a worker", it.Parent)
		}
		if seen[it.ID] {
			t.Fatalf("duplicate span ID %d", it.ID)
		}
		seen[it.ID] = true
	}
	snap := Snapshot()
	if snap.Histograms["obs.test.concurrent_hist"].Count != producers*perProducer {
		t.Fatalf("histogram count = %d, want %d",
			snap.Histograms["obs.test.concurrent_hist"].Count, producers*perProducer)
	}
}
