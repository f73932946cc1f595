package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// maxTraceSpans bounds one trace's span tree. A single solve produces
// tens of spans (model gen, solver rounds, shrink, compile, simulate);
// a sweep-heavy request or CLI run can produce thousands. Beyond the cap
// the trace keeps what it has and counts the rest, so one pathological
// request cannot grow without bound inside the trace store.
const maxTraceSpans = 2048

// Trace collects the span tree of one request or CLI run, and is the
// only place spans are recorded. It is carried by context from the
// serving layer (or cmd/eatss's main) down through analysis, the solver
// rounds, sweep workers and evaluation, so every span opened under the
// traced context lands in this one tree.
//
// Finished spans are snapshotted into the trace by End on the owning
// goroutine (the only goroutine allowed to touch a span's attributes),
// so Snapshot never observes a span mid-mutation even while detached
// work is still running.
type Trace struct {
	id string

	mu      sync.Mutex
	open    []openSpan // begun, not yet ended
	done    []*Span    // immutable copies, snapshotted at End
	dropped int        // spans lost to maxTraceSpans
}

// openSpan is the placeholder for a begun-but-unfinished span: enough
// to show it in a snapshot without touching the live (mutating) Span.
type openSpan struct {
	id, parent uint64
	name       string
	startAt    time.Time
}

type traceKey struct{}

// StartTrace opens a trace with the given ID and returns a
// derived context carrying it: every span subsequently opened under
// that context (directly or via parent spans) is collected into the
// trace. When the layer is disabled or the ID is empty it returns ctx
// unchanged and a nil *Trace; all Trace methods accept a nil receiver.
func StartTrace(ctx context.Context, id string) (context.Context, *Trace) {
	if !enabled.Load() || id == "" {
		return ctx, nil
	}
	t := &Trace{id: id}
	return context.WithValue(ctx, traceKey{}, t), t
}

// ID returns the trace's identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

func (t *Trace) spanBegin(sp *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open)+len(t.done) >= maxTraceSpans {
		t.dropped++
		return
	}
	t.open = append(t.open, openSpan{id: sp.ID, parent: sp.Parent, name: sp.Name, startAt: sp.StartAt})
}

// spanEnd snapshots the finished span into the trace. The value copy
// (attributes included) happens on the span's owning goroutine, so the
// stored copy is immutable from here on. A span whose begin was dropped
// by the cap is dropped here too, keeping the trace bounded.
func (t *Trace) spanEnd(sp *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	found := false
	for i := range t.open {
		if t.open[i].id == sp.ID {
			last := len(t.open) - 1
			t.open[i] = t.open[last]
			t.open = t.open[:last]
			found = true
			break
		}
	}
	if !found {
		return
	}
	c := *sp
	c.Attrs = append([]Attr(nil), sp.Attrs...)
	c.trace = nil
	t.done = append(t.done, &c)
}

// Snapshot returns the trace's spans in start (ID) order. Finished
// spans carry their duration and attributes; spans still running (for
// example a coalesced solve detached from an abandoned waiter) appear
// with a zero EndAt and no attributes. The returned spans are never
// mutated afterwards, so callers may hold them indefinitely.
func (t *Trace) Snapshot() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.done)+len(t.open))
	out = append(out, t.done...)
	for _, o := range t.open {
		out = append(out, &Span{ID: o.id, Parent: o.parent, Name: o.name, StartAt: o.startAt, TraceID: t.id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SpanCount returns how many spans the trace currently holds (finished
// plus still-open), excluding dropped ones.
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done) + len(t.open)
}

// Dropped returns how many spans were discarded by the per-trace cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
