// Package obs is the pipeline-wide observability layer: hierarchical
// spans collected into per-run traces, a process-wide metrics registry,
// and exporters (human-readable tree, JSON, Chrome trace-event format).
// It is stdlib-only and built so that instrumentation costs nothing
// when disabled:
//
//   - obs.Start returns a nil *Span when the layer is off or the context
//     carries no Trace; every Span method nil-checks, so the
//     instrumented code needs no guards and that path performs no
//     allocation (see TestObsOverhead and
//     TestListenPostureStartDoesNotAllocate),
//   - Counter/Gauge/Histogram updates are a single predictable branch
//     when disabled and a lock-free atomic when enabled.
//
// A span is recorded only under a Trace opened with StartTrace: there
// is no process-wide span log, so a long-lived process never
// accumulates spans outside a bounded trace. The pipeline packages
// (core, smt, ppcg, codegen, gpusim) carry the current span through a
// context.Context, so one traced run of SelectTilesCtx/RunCtx produces
// a single tree: model generation, the solver's objective-improvement
// rounds (Sec. IV-L / V-G), compilation, and simulation. cmd/eatss
// exposes its run's trace via -trace and -summary, eatssd exposes each
// request's trace at /debug/requests, and TreeSummaryOf,
// WriteChromeTraceOf and JSONSpans export any trace's Snapshot.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates metric updates, live progress and span recording.
var enabled atomic.Bool

// EnableMetrics turns the layer on: metric updates, live sweep progress
// and span recording into traces opened with StartTrace. A context
// without a Trace still gets the nil span, so a long-lived process
// (eatssd, any CLI under -listen) keeps /metrics and /progress live
// while memory stays flat.
func EnableMetrics() { enabled.Store(true) }

// Disable turns the layer off again; already-recorded data is kept.
func Disable() { enabled.Store(false) }

// now is the layer's time source, swappable for deterministic tests.
var (
	nowMu sync.RWMutex
	nowFn = time.Now
)

func now() time.Time {
	nowMu.RLock()
	fn := nowFn
	nowMu.RUnlock()
	return fn()
}

// Now returns the current time from the layer's swappable clock. The
// pipeline packages use it instead of calling time.Now directly (a
// project invariant enforced by tools/selfcheck), so wall-clock reads in
// solver and selection timings honor SetClock overrides in tests.
func Now() time.Time { return now() }

// SetClock overrides the time source used for span timestamps. Passing
// nil restores time.Now. Intended for golden tests.
func SetClock(fn func() time.Time) {
	nowMu.Lock()
	defer nowMu.Unlock()
	if fn == nil {
		fn = time.Now
	}
	nowFn = fn
}

// Reset zeroes every registered metric and clears the live progress
// state. Metric handles stay registered so package-level instruments
// survive.
func Reset() {
	resetMetrics()
	resetProgress()
}
