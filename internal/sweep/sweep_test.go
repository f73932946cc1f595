package sweep

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 0} {
		got, done, err := Map(context.Background(), workers, items, func(_ context.Context, i int, v int) int {
			return v * v
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, v := range got {
			if !done[i] {
				t.Fatalf("workers=%d: item %d not done", workers, i)
			}
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	items := make([]int, 64)
	_, _, err := Map(context.Background(), workers, items, func(_ context.Context, i int, _ int) int {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return i
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds workers=%d", p, workers)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 1000)
	var evaluated atomic.Int64
	_, done, err := Map(ctx, 4, items, func(_ context.Context, i int, _ int) int {
		if evaluated.Add(1) == 10 {
			cancel()
		}
		return i
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	if completed == len(items) {
		t.Fatal("cancellation did not stop the sweep")
	}
	if completed == 0 {
		t.Fatal("no items completed before cancellation")
	}
}

func TestMapCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		calls := 0
		_, done, err := Map(ctx, workers, []int{1, 2, 3}, func(_ context.Context, i int, _ int) int {
			calls++
			return i
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		for i, d := range done {
			if d {
				t.Fatalf("workers=%d: item %d ran after pre-cancelled ctx", workers, i)
			}
		}
		_ = calls
	}
}

func TestMapEmpty(t *testing.T) {
	got, done, err := Map(context.Background(), 4, nil, func(_ context.Context, i int, _ int) int { return i })
	if err != nil || len(got) != 0 || len(done) != 0 {
		t.Fatalf("empty sweep: got %v, done %v, err %v", got, done, err)
	}
}

// spansNamed filters a trace's spans by name, keeping their order.
func spansNamed(tr *obs.Trace, name string) []*obs.Span {
	var out []*obs.Span
	for _, sp := range tr.Snapshot() {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func TestMapWorkerSpans(t *testing.T) {
	obs.EnableMetrics()
	defer obs.Disable()
	obs.Reset()

	ctx, tr := obs.StartTrace(context.Background(), t.Name())
	ctx, root := obs.Start(ctx, "test.sweep")
	items := make([]int, 32)
	_, _, err := Map(ctx, 4, items, func(wctx context.Context, i int, _ int) int {
		_, sp := obs.Start(wctx, "test.eval")
		sp.End()
		return i
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}

	workers := spansNamed(tr, "sweep.worker")
	if len(workers) == 0 || len(workers) > 4 {
		t.Fatalf("worker spans = %d, want 1..4", len(workers))
	}
	workerIDs := map[uint64]bool{}
	for _, w := range workers {
		if w.Parent != root.ID {
			t.Fatalf("worker span parent = %d, want root %d", w.Parent, root.ID)
		}
		workerIDs[w.ID] = true
	}
	evals := spansNamed(tr, "test.eval")
	if len(evals) != len(items) {
		t.Fatalf("eval spans = %d, want %d", len(evals), len(items))
	}
	for _, e := range evals {
		if !workerIDs[e.Parent] {
			t.Fatalf("eval span parented to %d, not a worker span", e.Parent)
		}
	}
}

// TestMapHammer drives many concurrent sweeps with tracing and metrics
// enabled, all recording into one trace; it exists to run under -race
// (the Makefile check gate).
func TestMapHammer(t *testing.T) {
	obs.EnableMetrics()
	defer obs.Disable()
	obs.Reset()
	c := obs.NewCounter("sweep.test.hammer")
	tctx, _ := obs.StartTrace(context.Background(), t.Name())

	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := obs.Start(tctx, "hammer.sweep")
			items := make([]int, 50)
			_, _, _ = Map(ctx, 4, items, func(wctx context.Context, i int, _ int) int {
				_, sp := obs.Start(wctx, "hammer.eval")
				c.Add(1)
				sp.End()
				return i
			})
			root.End()
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*50 {
		t.Fatalf("counter = %d, want %d", got, 8*50)
	}
}
