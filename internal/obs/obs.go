// Package obs is the pipeline-wide observability layer: hierarchical
// spans, a process-wide metrics registry, and exporters (human-readable
// tree, JSON, Chrome trace-event format). It is stdlib-only and built so
// that instrumentation costs nothing when disabled:
//
//   - obs.Start returns a nil *Span when tracing is off; every Span
//     method nil-checks, so the instrumented code needs no guards and
//     the disabled path performs no allocation (see TestObsOverhead),
//   - Counter/Gauge/Histogram updates are a single predictable branch
//     when disabled and a lock-free atomic when enabled.
//
// The pipeline packages (core, smt, ppcg, codegen, gpusim, cachesim)
// carry the current span through a context.Context, so one enabled run
// of SelectTilesCtx/RunCtx produces a single tree: model generation, the
// solver's objective-improvement rounds (Sec. IV-L / V-G), compilation,
// and simulation. cmd/eatss exposes the layer via -trace, -metrics and
// -summary.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates both span recording and metric updates; spanCapture
// additionally gates span recording, so a long-lived process can keep
// the (bounded) metrics registry hot without accumulating spans.
var (
	enabled     atomic.Bool
	spanCapture atomic.Bool
)

// Enable turns span recording and metric updates on.
func Enable() {
	enabled.Store(true)
	spanCapture.Store(true)
}

// EnableMetrics turns metric updates (and live sweep progress) on
// without span recording. Spans accumulate in memory until Reset —
// fine for one pipeline run under -trace, unbounded for a daemon.
// cmd/eatssd runs under EnableMetrics so /metrics, /progress and the
// flight recorder's bounded ring stay live while memory stays flat.
func EnableMetrics() { enabled.Store(true) }

// Disable turns the layer off again; already-recorded data is kept.
func Disable() {
	enabled.Store(false)
	spanCapture.Store(false)
}

// Enabled reports whether the layer is recording.
func Enabled() bool { return enabled.Load() }

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

// Reset discards all recorded spans, zeroes every registered metric and
// clears the live progress state. Metric handles stay registered so
// package-level instruments survive.
func Reset() {
	tr.mu.Lock()
	tr.spans = nil
	tr.mu.Unlock()
	resetMetrics()
	resetProgress()
}
