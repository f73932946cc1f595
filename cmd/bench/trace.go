package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. The benchmark records spans around
// the calls it makes; the program itself carries no tracing.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index among the op's spans; -1 for the op's root
	Op     int64  `json:"op"`
	// Calls is how many calls the span covers. A loop of calls too cheap
	// to time one by one (a feasibility check is a few integer products)
	// is recorded as one span with Calls > 1.
	Calls int `json:"calls"`
}

// layerTime accumulates one span name's self time.
type layerTime struct {
	self  time.Duration
	calls int
}

// maxKeptSpans bounds the spans retained for -spans output. Self times
// are folded into the ledger as each op ends, so the ledger covers every
// op regardless of what is retained.
const maxKeptSpans = 200_000

// rootSpan names the span that wraps one benchmark op.
const rootSpan = "op"

// tracer records spans in memory for one goroutine. Each op is a tree of
// spans under a root span; endOp folds the tree's self times into the
// per-layer ledger.
type tracer struct {
	t0      time.Time
	op      int64
	cur     []span
	stack   []int
	keep    int // spans to retain for output
	kept    []span
	dropped int
	ledger  map[string]*layerTime
	opWall  time.Duration // summed root-span durations
	opSelf  time.Duration // summed root-span self times: the benchmark's own glue
}

// newTracer returns a tracer that retains up to keep spans for output.
func newTracer(keep int) *tracer {
	return &tracer{t0: time.Now(), keep: keep, ledger: make(map[string]*layerTime)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens a new op's root span.
func (t *tracer) beginOp() {
	t.op++
	t.cur = t.cur[:0]
	t.stack = t.stack[:0]
	t.begin(rootSpan)
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.cur = append(t.cur, span{Name: name, Start: t.now(), Parent: parent, Op: t.op, Calls: 1})
	i := len(t.cur) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	t.cur[i].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// dur is closed span i's duration.
func (t *tracer) dur(i int) time.Duration { return time.Duration(t.cur[i].End - t.cur[i].Start) }

// endCalls closes span i and records that it covered calls calls.
func (t *tracer) endCalls(i, calls int) {
	t.end(i)
	t.cur[i].Calls = calls
}

// endOp closes the op's root span and folds the op into the ledger.
func (t *tracer) endOp() {
	t.end(0)
	self := selfTimes(t.cur)
	for i, s := range t.cur {
		if s.Parent < 0 {
			t.opWall += time.Duration(s.End - s.Start)
			t.opSelf += time.Duration(self[i])
			continue
		}
		lt := t.ledger[s.Name]
		if lt == nil {
			lt = &layerTime{}
			t.ledger[s.Name] = lt
		}
		lt.self += time.Duration(self[i])
		lt.calls += s.Calls
	}
	if room := t.keep - len(t.kept); room >= len(t.cur) {
		t.kept = append(t.kept, t.cur...)
	} else {
		t.dropped += len(t.cur)
	}
}

// perCall is a span name's mean self time per call, in unit.
func (t *tracer) perCall(name string, unit time.Duration) float64 {
	lt := t.ledger[name]
	if lt == nil || lt.calls == 0 {
		return 0
	}
	return float64(lt.self) / float64(lt.calls) / float64(unit)
}

// coverage is the share of op wall time spent inside layer spans rather
// than in the benchmark's own code between them.
func (t *tracer) coverage() float64 {
	return 1 - ratio(float64(t.opSelf), float64(t.opWall))
}

// write stores the retained spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.kept, t.dropped})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children that overlap one another (parallel
// calls) are counted once, and a child's time outside its parent's
// interval is ignored.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
