// Package sweep is the bounded parallel-evaluation engine behind the
// exploration studies: ExploreSpaceOpt's tile-space sweeps, the bench
// runner's per-figure variant sweeps, and autotune's bootstrap phase all
// fan their independent evaluations out through Map.
//
// The engine makes three guarantees the callers rely on:
//
//   - Order: results are returned indexed like the input, so a parallel
//     sweep is byte-identical to a sequential one (the evaluations
//     themselves must be pure, which the pipeline's compile/simulate
//     path is — it reads shared kernels and GPU descriptions but never
//     mutates them).
//   - Bounded concurrency: at most `workers` evaluations run at once
//     (default GOMAXPROCS); workers pull indices from a shared atomic
//     cursor, so there is no per-item goroutine explosion.
//   - Cancellation: the context is polled before every dispatch. A
//     cancelled sweep stops handing out new items, lets in-flight
//     evaluations finish, and reports which items completed — callers
//     return partial results instead of sweeping the rest of a 15^d
//     space.
//
// Observability: with internal/obs enabled, each worker goroutine runs
// under a "sweep.worker" child span of the caller's span, and every
// evaluation receives the worker's context, so compile/simulate spans
// stay hierarchical (caller → worker → evaluation) instead of all
// parenting to the sweep root. The workers=1 path runs in the calling
// goroutine with the caller's context unchanged — it is exactly the
// legacy sequential loop.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Map evaluates fn over every item with at most workers concurrent
// evaluations and returns one result per item, in input order.
//
// workers <= 0 uses runtime.GOMAXPROCS(0); workers == 1 runs in the
// calling goroutine (no spawned workers, caller's context passed
// through). done[i] reports whether item i was evaluated; it is false
// only when the context was cancelled before the item was dispatched.
// err is ctx.Err() when the sweep was cut short, nil otherwise.
//
// fn must be safe for concurrent invocation; each invocation receives
// the worker's derived context for span parenting and cancellation.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) R) (results []R, done []bool, err error) {
	n := len(items)
	results = make([]R, n)
	done = make([]bool, n)
	if n == 0 {
		return results, done, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	if workers == 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return results, done, err
			}
			results[i] = fn(ctx, i, item)
			done[i] = true
		}
		return results, done, ctx.Err()
	}

	// Workers claim indices from a shared cursor. Each writes only its
	// own results[i]/done[i] slots; the WaitGroup join publishes them to
	// the caller.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wctx, wsp := obs.Start(ctx, "sweep.worker")
			wsp.SetInt("worker", int64(id))
			evaluated := 0
			defer func() {
				wsp.SetInt("items", int64(evaluated))
				wsp.End()
			}()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				results[i] = fn(wctx, i, items[i])
				done[i] = true
				evaluated++
			}
		}(w)
	}
	wg.Wait()
	return results, done, ctx.Err()
}

// Workers resolves a configured worker count: n when positive, else
// GOMAXPROCS. Exposed so callers can report the effective parallelism.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
