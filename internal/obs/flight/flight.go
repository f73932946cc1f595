// Package flight is the pipeline's bounded-memory flight recorder: a
// fixed-capacity ring of structured events (span begin/end, metric
// deltas, solver incumbents, sweep point completions, log records) that
// captures the most recent toolchain activity with a fixed footprint,
// for crash forensics and the live /flight introspection endpoint.
//
// The recorder follows the same cost discipline as internal/obs:
//
//   - disabled, Record is a single atomic load and performs no
//     allocation (guarded by the obs zero-alloc tests),
//   - enabled, an append claims one preallocated slot under a short
//     critical section — no allocation, no unbounded growth; once the
//     ring is full the oldest events are overwritten.
//
// The ring itself is allocated by the first Enable, so a process that
// never turns the recorder on (a CLI run, a library caller) does not
// carry it on its heap.
//
// Writers never block each other for longer than one slot copy, and a
// Snapshot always observes fully-written events (the slot store happens
// inside the same critical section), so dumps are never torn even with
// many concurrent producers (see TestFlightWraparoundConcurrent).
package flight

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates flight-recorder events.
type Kind uint8

// Event kinds.
const (
	// KindSpanBegin marks an obs span opening. Span is the span ID, A its
	// parent ID.
	KindSpanBegin Kind = iota + 1
	// KindSpanEnd marks an obs span closing. A is the duration in ns.
	KindSpanEnd
	// KindMetric records a counter delta (A) or gauge value (F) under the
	// instrument's name.
	KindMetric
	// KindIncumbent records a solver objective improvement: A is the
	// Maximize round, B the incumbent objective value.
	KindIncumbent
	// KindSweepPoint records one completed sweep evaluation: A is the
	// point's index in the space, B packs outcome bits (1 = mapped OK,
	// 2 = served from the evaluation cache).
	KindSweepPoint
	// KindLog mirrors a structured log record: Str is the message, Name
	// the level.
	KindLog
)

// String names the kind for the JSON dump.
func (k Kind) String() string {
	switch k {
	case KindSpanBegin:
		return "span_begin"
	case KindSpanEnd:
		return "span_end"
	case KindMetric:
		return "metric"
	case KindIncumbent:
		return "incumbent"
	case KindSweepPoint:
		return "sweep_point"
	case KindLog:
		return "log"
	}
	return "unknown"
}

// Event is one recorded occurrence. The scalar payload fields (A, B, F,
// Str) are interpreted per Kind; unused fields are zero. Events are
// plain values — recording one copies it into the ring, so a recorded
// event never aliases caller state.
type Event struct {
	// Seq is the event's global sequence number (1-based, monotone).
	// Snapshot returns events in Seq order; gaps never occur, so
	// Seq - oldest snapshot Seq + 1 == events retained.
	Seq uint64
	// TimeNs is the wall-clock timestamp in Unix nanoseconds.
	TimeNs int64
	Kind   Kind
	// Name identifies the subject: span name, metric name, log level.
	Name string
	// Span is the obs span ID the event belongs to (0 = none).
	Span uint64
	// Trace is the request trace ID the event belongs to ("" = none), so
	// ring dumps can be filtered down to one request (/flight?trace=).
	Trace string
	A     int64
	B     int64
	F     float64
	Str   string
}

// DefaultCapacity is the ring size of the Default recorder: small enough
// to be a modest fixed cost once enabled (an Event is ~100 bytes, so the
// default ring holds ~1.6 MB), large enough to cover the tail of a long
// sweep.
const DefaultCapacity = 16384

// Recorder is a fixed-capacity event ring. The zero value is unusable;
// construct with New. All methods are safe for concurrent use.
type Recorder struct {
	enabled atomic.Bool

	mu       sync.Mutex
	capacity int
	buf      []Event // allocated by the first Enable; nil until then
	next     uint64  // total events ever recorded; buf[(next-1) % cap] is newest
}

// Default is the process-wide recorder the pipeline packages write to.
var Default = New(DefaultCapacity)

// New returns a recorder retaining the last capacity events (minimum 1).
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{capacity: capacity}
}

// Enable starts recording, allocating the ring on first use. The ring is
// in place before the enabled flag is published, so a Record that sees
// the flag always finds a slot to write.
func (r *Recorder) Enable() {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]Event, r.capacity)
	}
	r.mu.Unlock()
	r.enabled.Store(true)
}

// Disable stops recording; retained events are kept for dumping.
func (r *Recorder) Disable() { r.enabled.Store(false) }

// Enabled reports whether the recorder is capturing events.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Reset discards every retained event (the recorder stays enabled or
// disabled as it was).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next = 0
	for i := range r.buf {
		r.buf[i] = Event{}
	}
}

// Record appends e, stamping its sequence number and timestamp. Disabled
// recorders drop the event without allocating.
func (r *Recorder) Record(e Event) {
	if r == nil || !r.enabled.Load() {
		return
	}
	t := time.Now().UnixNano()
	r.mu.Lock()
	r.next++
	e.Seq = r.next
	e.TimeNs = t
	r.buf[(r.next-1)%uint64(len(r.buf))] = e
	r.mu.Unlock()
}

// Cap returns the ring capacity, whether or not the ring is allocated
// yet.
func (r *Recorder) Cap() int { return r.capacity }

// Total returns how many events were ever recorded (including
// overwritten ones).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Len returns the number of currently retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retained()
}

func (r *Recorder) retained() int {
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Snapshot copies the retained events, oldest first. The copy is fully
// consistent: every event was completely written before it became
// visible, so a snapshot taken mid-flood contains no torn events.
func (r *Recorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.retained()
	out := make([]Event, n)
	capU := uint64(len(r.buf))
	for i := 0; i < n; i++ {
		seq := r.next - uint64(n) + uint64(i) // 0-based: event with Seq == seq+1
		out[i] = r.buf[seq%capU]
	}
	return out
}

// jsonEvent is the dump shape of one event.
type jsonEvent struct {
	Seq    uint64  `json:"seq"`
	TimeNs int64   `json:"t_ns"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name,omitempty"`
	Span   uint64  `json:"span,omitempty"`
	Trace  string  `json:"trace,omitempty"`
	A      int64   `json:"a,omitempty"`
	B      int64   `json:"b,omitempty"`
	F      float64 `json:"f,omitempty"`
	Str    string  `json:"str,omitempty"`
}

// Dump is the JSON shape of a recorder dump.
type Dump struct {
	Capacity int    `json:"capacity"`
	Total    uint64 `json:"total"`
	Dropped  uint64 `json:"dropped"`
	// Filter is the trace ID the dump was filtered to, if any.
	Filter string      `json:"filter,omitempty"`
	Events []jsonEvent `json:"events"`
}

// WriteJSON dumps the retained events as JSON — the payload of the
// /flight endpoint and of the on-error/on-signal dumps.
func (r *Recorder) WriteJSON(w io.Writer) error { return r.WriteJSONTrace(w, "") }

// WriteJSONTrace dumps the retained events recorded under the given
// trace ID (all events when trace is "") — the /flight?trace= payload.
func (r *Recorder) WriteJSONTrace(w io.Writer, trace string) error {
	events := r.Snapshot()
	d := Dump{Capacity: r.Cap(), Total: r.Total(), Filter: trace}
	if d.Total > uint64(len(events)) {
		d.Dropped = d.Total - uint64(len(events))
	}
	d.Events = make([]jsonEvent, 0, len(events))
	for _, e := range events {
		if trace != "" && e.Trace != trace {
			continue
		}
		d.Events = append(d.Events, jsonEvent{
			Seq: e.Seq, TimeNs: e.TimeNs, Kind: e.Kind.String(),
			Name: e.Name, Span: e.Span, Trace: e.Trace, A: e.A, B: e.B, F: e.F, Str: e.Str,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// Convenience recorders for the pipeline's event sources. Each checks
// the enabled flag before building the event, so a disabled recorder
// costs one atomic load and zero allocations.

// SpanBegin records an obs span opening; trace is the request trace ID
// the span belongs to ("" = none).
func (r *Recorder) SpanBegin(id, parent uint64, name, trace string) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.Record(Event{Kind: KindSpanBegin, Name: name, Span: id, Trace: trace, A: int64(parent)})
}

// SpanEnd records an obs span closing with its duration.
func (r *Recorder) SpanEnd(id uint64, name string, dur time.Duration, trace string) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.Record(Event{Kind: KindSpanEnd, Name: name, Span: id, Trace: trace, A: int64(dur)})
}

// CounterAdd records a counter delta.
func (r *Recorder) CounterAdd(name string, delta int64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.Record(Event{Kind: KindMetric, Name: name, A: delta})
}

// GaugeSet records a gauge update.
func (r *Recorder) GaugeSet(name string, v float64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.Record(Event{Kind: KindMetric, Name: name, F: v})
}

// Incumbent records a solver objective improvement.
func (r *Recorder) Incumbent(name string, round, objective int64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.Record(Event{Kind: KindIncumbent, Name: name, A: round, B: objective})
}

// Sweep-point outcome bits packed into Event.B.
const (
	SweepOK       = 1 << 0 // the point mapped and simulated successfully
	SweepCacheHit = 1 << 1 // the result came from the evaluation cache
)

// SweepPoint records one completed sweep evaluation.
func (r *Recorder) SweepPoint(kernel string, index int64, ok, cacheHit bool) {
	if r == nil || !r.enabled.Load() {
		return
	}
	var bits int64
	if ok {
		bits |= SweepOK
	}
	if cacheHit {
		bits |= SweepCacheHit
	}
	r.Record(Event{Kind: KindSweepPoint, Name: kernel, A: index, B: bits})
}

// Log mirrors a structured log record; trace is the request trace ID
// the record was emitted under ("" = none).
func (r *Recorder) Log(level, msg string, span uint64, trace string) {
	if r == nil || !r.enabled.Load() {
		return
	}
	r.Record(Event{Kind: KindLog, Name: level, Str: msg, Span: span, Trace: trace})
}
