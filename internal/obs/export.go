package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// TreeSummaryOf renders the given spans (a Trace's Snapshot) as an
// indented tree with durations and attributes — the human-readable
// exporter behind eatss -summary and the /debug/requests drill-down.
func TreeSummaryOf(spans []*Span) string {
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	children := make(map[uint64][]*Span)
	ids := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	var roots []*Span
	for _, sp := range spans {
		// Treat spans whose parent is not among them as roots.
		if sp.Parent == 0 || !ids[sp.Parent] {
			roots = append(roots, sp)
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var b strings.Builder
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		fmt.Fprintf(&b, "%s%s  %s%s\n",
			strings.Repeat("  ", depth), sp.Name,
			formatDur(sp.Duration()), formatAttrs(sp.Attrs))
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

func formatDur(d time.Duration) string {
	if d == 0 {
		return "(unfinished)"
	}
	return d.Round(time.Microsecond).String()
}

func formatAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = fmt.Sprintf("%s=%v", a.Key, a.Value())
	}
	return "  {" + strings.Join(parts, " ") + "}"
}

// MetricsSummary renders the snapshot as sorted "name value" lines.
func MetricsSummary() string {
	s := Snapshot()
	var b strings.Builder
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-40s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-40s %g\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%-40s n=%d mean=%.3g\n", name, h.Count, h.Mean())
	}
	return b.String()
}

// JSONSpan is the span shape of the JSON exporters.
type JSONSpan struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	Trace   string         `json:"trace,omitempty"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// JSONSpans converts spans to the JSON export shape — the raw export
// for downstream tooling, used by the /debug/requests per-trace
// drill-down.
func JSONSpans(spans []*Span) []JSONSpan {
	js := make([]JSONSpan, 0, len(spans))
	for _, sp := range spans {
		js = append(js, JSONSpan{
			ID:      sp.ID,
			Parent:  sp.Parent,
			Name:    sp.Name,
			Trace:   sp.TraceID,
			StartNs: sp.StartAt.UnixNano(),
			DurNs:   int64(sp.Duration()),
			Attrs:   attrMap(sp.Attrs),
		})
	}
	return js
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// chromeEvent is one Chrome trace-event ("X" = complete event). The
// format is documented in the Trace Event Format spec; files load in
// chrome://tracing and https://ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTraceOf writes the given spans (a Trace's Snapshot) as
// Chrome trace events, so a run's or a request's tree loads in
// chrome://tracing or ui.perfetto.dev. Each top-level span gets its own
// track (tid) with descendants nested inside it; timestamps are
// microseconds relative to the earliest span. The metrics snapshot
// rides along under the extra "metrics" key, which trace viewers
// ignore.
func WriteChromeTraceOf(w io.Writer, spans []*Span) error {
	var t0 time.Time
	for _, sp := range spans {
		if t0.IsZero() || sp.StartAt.Before(t0) {
			t0 = sp.StartAt
		}
	}
	// Track = the span's root ancestor, so parallel candidates render as
	// separate rows while each pipeline stays properly nested.
	byID := make(map[uint64]*Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	rootOf := func(sp *Span) uint64 {
		for sp.Parent != 0 {
			p, ok := byID[sp.Parent]
			if !ok {
				break
			}
			sp = p
		}
		return sp.ID
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		dur := sp.Duration()
		events = append(events, chromeEvent{
			Name: sp.Name,
			Cat:  "eatss",
			Ph:   "X",
			Ts:   float64(sp.StartAt.Sub(t0)) / float64(time.Microsecond),
			Dur:  float64(dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  rootOf(sp),
			Args: attrMap(sp.Attrs),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []chromeEvent   `json:"traceEvents"`
		Metrics     MetricsSnapshot `json:"metrics"`
	}{events, Snapshot()})
}
