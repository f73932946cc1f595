package obs

import (
	"sync/atomic"
	"time"
)

// Live progress state: the most recent sweep and the solver's current
// incumbent, published lock-free for the /progress introspection
// endpoint. Unlike spans and metrics (which accumulate), this is
// last-writer-wins live state — it answers "what is the toolchain doing
// right now" while a long sweep or solve is running.
var (
	activeSweep     atomic.Pointer[SweepProgress]
	activeIncumbent atomic.Pointer[IncumbentState]
)

// SweepProgress is the live state of one tile-space sweep. The producer
// (the sweep engine) updates it with atomic counters; any goroutine may
// read it concurrently through the accessors.
type SweepProgress struct {
	// Kernel names the swept kernel.
	Kernel string
	// Total is the number of points in the sweep's space.
	Total int64
	// StartNs is the sweep's start time in Unix nanoseconds.
	StartNs int64

	done     atomic.Int64
	hits     atomic.Int64
	skipped  atomic.Int64
	pruned   atomic.Int64
	symbolic atomic.Int64
	residual atomic.Int64
	finished atomic.Bool

	evaluator atomic.Pointer[string]
}

// BeginSweep publishes a new live sweep and returns its progress handle.
// It returns nil when the layer is disabled; all methods are safe on a
// nil handle, so the sweep engine needs no guards.
func BeginSweep(kernel string, total int) *SweepProgress {
	if !enabled.Load() {
		return nil
	}
	p := &SweepProgress{Kernel: kernel, Total: int64(total), StartNs: time.Now().UnixNano()}
	activeSweep.Store(p)
	return p
}

// PointDone records one completed evaluation. Done counts are monotone
// non-decreasing for the sweep's lifetime.
func (p *SweepProgress) PointDone(cacheHit, ok bool) {
	if p == nil {
		return
	}
	if cacheHit {
		p.hits.Add(1)
	}
	if !ok {
		p.skipped.Add(1)
	}
	p.done.Add(1)
}

// PointPruned records one configuration removed by the static
// feasibility pre-filter before evaluation. Pruned points count toward
// Done (the sweep's Total covers the unfiltered space, and a pruned
// point is as finished as an evaluated one), so /progress percentages
// stay monotone whether or not pruning is on.
func (p *SweepProgress) PointPruned() {
	if p == nil {
		return
	}
	p.pruned.Add(1)
	p.done.Add(1)
}

// Pruned returns the number of statically pruned points.
func (p *SweepProgress) Pruned() int64 {
	if p == nil {
		return 0
	}
	return p.pruned.Load()
}

// SetEvaluator records which evaluation backend the sweep runs on
// ("simulate" or "symbolic") for the /progress view.
func (p *SweepProgress) SetEvaluator(name string) {
	if p == nil {
		return
	}
	p.evaluator.Store(&name)
}

// Evaluator returns the recorded backend name ("" when unset).
func (p *SweepProgress) Evaluator() string {
	if p == nil {
		return ""
	}
	if s := p.evaluator.Load(); s != nil {
		return *s
	}
	return ""
}

// PointEval attributes one fresh (non-cache-hit) evaluation to a
// backend: symbolic marks a closed-form evaluation, residual marks a
// point that fell back to per-point simulation although a symbolic
// backend was requested. Complements PointDone, which counts
// completion.
func (p *SweepProgress) PointEval(symbolic, residual bool) {
	if p == nil {
		return
	}
	if symbolic {
		p.symbolic.Add(1)
	}
	if residual {
		p.residual.Add(1)
	}
}

// SymbolicPoints returns the number of points evaluated in closed form.
func (p *SweepProgress) SymbolicPoints() int64 {
	if p == nil {
		return 0
	}
	return p.symbolic.Load()
}

// ResidualPoints returns the number of points that fell back to
// simulation under a symbolic evaluator.
func (p *SweepProgress) ResidualPoints() int64 {
	if p == nil {
		return 0
	}
	return p.residual.Load()
}

// Finish marks the sweep complete (it stays published as the most
// recent sweep until the next BeginSweep).
func (p *SweepProgress) Finish() {
	if p == nil {
		return
	}
	p.finished.Store(true)
}

// Done returns the number of completed points.
func (p *SweepProgress) Done() int64 {
	if p == nil {
		return 0
	}
	return p.done.Load()
}

// CacheHits returns the number of points served from the eval cache.
func (p *SweepProgress) CacheHits() int64 {
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// Skipped returns the number of points that failed to map.
func (p *SweepProgress) Skipped() int64 {
	if p == nil {
		return 0
	}
	return p.skipped.Load()
}

// Finished reports whether the sweep has completed.
func (p *SweepProgress) Finished() bool {
	if p == nil {
		return false
	}
	return p.finished.Load()
}

// CurrentSweep returns the most recently begun sweep, or nil when none
// has been published since the process started.
func CurrentSweep() *SweepProgress { return activeSweep.Load() }

// IncumbentState is the solver's most recent objective improvement —
// the live view of the paper's OBJ_{n+1} > OBJ_n climb (Sec. IV-L).
type IncumbentState struct {
	// Name identifies the optimization (typically the kernel being
	// solved).
	Name string
	// Round is the Maximize improvement round that found the incumbent.
	Round int64
	// Objective is the incumbent objective value.
	Objective int64
	// TimeNs is when the incumbent was found (Unix nanoseconds).
	TimeNs int64
}

// SetIncumbent publishes a new solver incumbent. No-op when the layer
// is disabled.
func SetIncumbent(name string, round, objective int64) {
	if !enabled.Load() {
		return
	}
	activeIncumbent.Store(&IncumbentState{
		Name: name, Round: round, Objective: objective, TimeNs: time.Now().UnixNano(),
	})
}

// Incumbent returns the most recently published solver incumbent; ok is
// false when none has been published since the process started.
func Incumbent() (IncumbentState, bool) {
	p := activeIncumbent.Load()
	if p == nil {
		return IncumbentState{}, false
	}
	return *p, true
}

// resetProgress clears the live state (called from Reset).
func resetProgress() {
	activeSweep.Store(nil)
	activeIncumbent.Store(nil)
}
