package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// AttrKind discriminates the value held by an Attr.
type AttrKind uint8

// Attribute kinds.
const (
	KindInt AttrKind = iota + 1
	KindFloat
	KindStr
	KindBool
)

// Attr is one typed key/value annotation on a span.
type Attr struct {
	Key    string
	Kind   AttrKind
	IntV   int64
	FloatV float64
	StrV   string
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, IntV: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Kind: KindFloat, FloatV: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: KindStr, StrV: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: KindBool}
	if v {
		a.IntV = 1
	}
	return a
}

// Value returns the attribute's value as an interface (for exporters).
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.IntV
	case KindFloat:
		return a.FloatV
	case KindStr:
		return a.StrV
	case KindBool:
		return a.IntV != 0
	}
	return nil
}

// Span is one recorded pipeline phase. The zero ID is "no parent".
// A span is owned by the goroutine that started it; attribute setters
// are not synchronized. Concurrent producers are otherwise safe: Start
// only reads the parent span from the context and its Trace serializes
// registration, so many goroutines may open children of a shared parent
// at once — the pattern the parallel sweep engine uses, giving each pool
// worker its own "sweep.worker" child span to annotate (see
// TestConcurrentSpanProducers).
type Span struct {
	ID      uint64
	Parent  uint64
	Name    string
	StartAt time.Time
	EndAt   time.Time
	Attrs   []Attr
	// TraceID is the ID of the trace the span belongs to.
	TraceID string

	// trace is the collector the span reports to on End.
	trace *Trace
}

type ctxKey struct{}

// nextSpanID numbers spans process-wide, so IDs stay unique across
// traces (a log record's span attribute names one span process-wide).
var nextSpanID atomic.Uint64

// Start opens a span named name as a child of the span carried by ctx
// (if any) and returns a derived context carrying the new span. The
// span is recorded into the Trace carried by ctx (opened by StartTrace,
// directly or via the parent span). When the layer is disabled or ctx
// carries no trace it returns ctx unchanged and a nil span — the
// allocation-free fast path; all Span methods accept a nil receiver.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	var t *Trace
	if parent != nil {
		t = parent.trace
	} else {
		t, _ = ctx.Value(traceKey{}).(*Trace)
	}
	if t == nil {
		return ctx, nil
	}
	var parentID uint64
	if parent != nil {
		parentID = parent.ID
	}
	sp := &Span{
		ID:      nextSpanID.Add(1),
		Parent:  parentID,
		Name:    name,
		StartAt: now(),
		TraceID: t.id,
		trace:   t,
	}
	t.spanBegin(sp)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if p, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return p
	}
	return nil
}

// End stamps the span's end time, snapshotting the span into its
// trace. Ending a nil or already-ended span is a no-op.
func (s *Span) End() {
	if s == nil || !s.EndAt.IsZero() {
		return
	}
	s.EndAt = now()
	if s.trace != nil { // nil on the copies a Trace snapshot holds
		s.trace.spanEnd(s)
	}
}

// Duration is EndAt-StartAt, or 0 for an unfinished span.
func (s *Span) Duration() time.Duration {
	if s == nil || s.EndAt.IsZero() {
		return 0
	}
	return s.EndAt.Sub(s.StartAt)
}

// Set appends attributes. Prefer the typed setters on hot paths: a
// variadic call allocates its argument slice even for a nil span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// SetInt records an integer attribute without allocating on nil spans.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Int(key, v))
}

// SetFloat records a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Float(key, v))
}

// SetStr records a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Str(key, v))
}

// SetBool records a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Bool(key, v))
}

// Attr returns the last attribute recorded under key.
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	for i := len(s.Attrs) - 1; i >= 0; i-- {
		if s.Attrs[i].Key == key {
			return s.Attrs[i], true
		}
	}
	return Attr{}, false
}
