package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// errPanic marks an error recovered from a panic: an internal fault,
// answered with HTTP 500.
var errPanic = errors.New("serve: internal error")

// panicError counts a recovered panic and wraps its value as errPanic.
func panicError(r any) error {
	mPanics.Add(1)
	return fmt.Errorf("%w: panic: %v", errPanic, r)
}

// callRecovered runs fn, returning a panic in fn as its error.
func callRecovered(fn func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	return fn()
}

// group coalesces concurrent work by key (a minimal singleflight): the
// first caller for a key becomes the leader and runs fn in a detached
// goroutine; everyone else waits on the leader's result. Two deliberate
// departures from the classic shape, both for service use:
//
//   - Waiting respects each waiter's context: a caller whose deadline
//     expires gets its context error immediately and stops waiting.
//   - The work itself is NOT tied to any caller's context. fn keeps
//     running after every waiter has given up, so the result still
//     lands in the cache — the herd's solve is never wasted.
//   - A panic in fn is every waiter's error, not a crash: the detached
//     goroutine has no caller to recover it.
type group struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	val     any
	err     error
	waiters atomic.Int64 // leader + followers; tests observe herd size
}

// do returns fn's result for key, coalescing concurrent callers.
// coalesced reports that this caller waited on another caller's work
// rather than leading its own.
func (g *group) do(ctx context.Context, key string, fn func() (any, error)) (v any, coalesced bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiters.Add(1)
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	c.waiters.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	go func() {
		// Yield before starting: a freshly spawned goroutine runs ahead
		// of the scheduler's run queue, so on a saturated (or single-P)
		// scheduler a CPU-bound fn would finish before concurrently
		// arrived requests for the same key were even dispatched — they
		// would then hit the result cache one by one instead of
		// coalescing here. One yield lets every already-runnable request
		// observe the in-flight call first.
		runtime.Gosched()
		v, err := callRecovered(fn)
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.val, c.err = v, err
		close(c.done)
	}()

	select {
	case <-c.done:
		return c.val, false, c.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// waiters reports how many callers are attached to key's in-flight call
// (0 when none is in flight). Tests use it to hold a herd open
// deterministically.
func (g *group) waiters(key string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters.Load()
	}
	return 0
}
