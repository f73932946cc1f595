package flight

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRecordAndSnapshotOrder(t *testing.T) {
	r := New(8)
	r.Enable()
	for i := int64(0); i < 5; i++ {
		r.Record(Event{Kind: KindMetric, Name: "m", A: i})
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("retained = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.A != int64(i) {
			t.Fatalf("event[%d].A = %d, want %d", i, e.A, i)
		}
		if e.TimeNs == 0 {
			t.Fatalf("event[%d] has no timestamp", i)
		}
	}
	if r.Len() != 5 || r.Total() != 5 || r.Cap() != 8 {
		t.Fatalf("Len/Total/Cap = %d/%d/%d, want 5/5/8", r.Len(), r.Total(), r.Cap())
	}
}

// TestWraparoundEvictsOldest pins the ring semantics: once full, each
// append overwrites the oldest event, and Snapshot returns exactly the
// last Cap() events in contiguous sequence order.
func TestWraparoundEvictsOldest(t *testing.T) {
	r := New(4)
	r.Enable()
	const total = 11
	for i := int64(0); i < total; i++ {
		r.Record(Event{Kind: KindMetric, Name: "m", A: i})
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want capacity 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(total - 4 + i + 1)
		if e.Seq != wantSeq {
			t.Fatalf("event[%d].Seq = %d, want %d (oldest must be evicted)", i, e.Seq, wantSeq)
		}
		if e.A != int64(e.Seq-1) {
			t.Fatalf("event[%d] payload %d does not match its seq %d", i, e.A, e.Seq)
		}
	}
	if got := r.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
}

// TestFlightWraparoundConcurrent floods a tiny ring from many writers
// while readers snapshot continuously. Every observed event must be
// internally consistent (payload fields written together with its
// sequence number) — a torn slot would show a mismatched payload.
// Run under -race via the sweep-race gate.
func TestFlightWraparoundConcurrent(t *testing.T) {
	r := New(32)
	r.Enable()
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				// A and B carry the same value: a torn event would show
				// A != B.
				r.Record(Event{Kind: KindSweepPoint, Name: "k", A: v, B: v})
			}
		}(w)
	}
	stop := make(chan struct{})
	var readerErr error
	var rmu sync.Mutex
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := r.Snapshot()
				var lastSeq uint64
				for _, e := range evs {
					if e.A != e.B || (lastSeq != 0 && e.Seq != lastSeq+1) {
						rmu.Lock()
						readerErr = &tornError{e, lastSeq}
						rmu.Unlock()
						return
					}
					lastSeq = e.Seq
				}
			}
		}()
	}
	// Let the writers finish, then release the readers.
	go func() {
		for r.Total() < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	if got := r.Len(); got != 32 {
		t.Fatalf("Len = %d, want capacity 32", got)
	}
}

type tornError struct {
	e       Event
	lastSeq uint64
}

func (e *tornError) Error() string {
	return "torn or out-of-order event observed"
}

func TestDisabledRecorderDropsAndDoesNotAllocate(t *testing.T) {
	r := New(8)
	r.Record(Event{Kind: KindMetric, Name: "m"})
	r.SpanBegin(1, 0, "s", "")
	r.SpanEnd(1, "s", time.Second, "")
	r.CounterAdd("c", 1)
	r.GaugeSet("g", 1.5)
	r.Incumbent("solve", 1, 10)
	r.SweepPoint("k", 0, true, false)
	r.Log("INFO", "msg", 0, "")
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("disabled recorder retained events: len=%d total=%d", r.Len(), r.Total())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.SpanBegin(1, 0, "s", "")
		r.CounterAdd("c", 1)
		r.SweepPoint("k", 0, true, true)
	})
	if allocs != 0 {
		t.Fatalf("disabled flight recording allocates %.1f per call, want 0", allocs)
	}
	// A nil recorder must be safe too.
	var nilR *Recorder
	nilR.CounterAdd("c", 1)
	nilR.SpanBegin(1, 0, "s", "")
	if nilR.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
}

func TestEnabledRecordDoesNotAllocate(t *testing.T) {
	r := New(64)
	r.Enable()
	allocs := testing.AllocsPerRun(1000, func() {
		r.SweepPoint("kernel", 3, true, false)
		r.Incumbent("solve", 1, 42)
	})
	if allocs != 0 {
		t.Fatalf("enabled flight recording allocates %.1f per call, want 0 (ring is preallocated)", allocs)
	}
}

// TestDisabledRecorderHoldsNoRing pins the lazy ring: a recorder that
// was never enabled costs a few words, not DefaultCapacity events, while
// Cap still reports the capacity it will have. Enabling allocates the
// ring once, and recording into it stays allocation-free.
func TestDisabledRecorderHoldsNoRing(t *testing.T) {
	const n = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rs := make([]*Recorder, n)
	for i := range rs {
		rs[i] = New(DefaultCapacity)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 4096 {
		t.Fatalf("disabled New(DefaultCapacity) allocates %d bytes, want < 4 KB", per)
	}
	r := rs[0]
	if r.Cap() != DefaultCapacity || r.Len() != 0 || len(r.Snapshot()) != 0 {
		t.Fatalf("Cap/Len/Snapshot = %d/%d/%d before Enable, want %d/0/0",
			r.Cap(), r.Len(), len(r.Snapshot()), DefaultCapacity)
	}
	r.Reset()
	r.Enable()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Incumbent("solve", 1, 42)
	})
	if allocs != 0 {
		t.Fatalf("recording after a lazy Enable allocates %.1f per event, want 0", allocs)
	}
	if r.Len() == 0 || r.Cap() != DefaultCapacity {
		t.Fatalf("Len/Cap after Enable = %d/%d, want >0/%d", r.Len(), r.Cap(), DefaultCapacity)
	}
	r.Disable()
	r.Enable() // a second Enable keeps the ring and its events
	if got := r.Snapshot(); len(got) == 0 || got[len(got)-1].B != 42 {
		t.Fatalf("re-Enable lost the retained events: %d left", len(got))
	}
}

func TestWriteJSON(t *testing.T) {
	r := New(4)
	r.Enable()
	for i := int64(0); i < 6; i++ {
		r.SweepPoint("gemm", i, i%2 == 0, false)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Capacity int    `json:"capacity"`
		Total    uint64 `json:"total"`
		Dropped  uint64 `json:"dropped"`
		Events   []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
			Name string `json:"name"`
			A    int64  `json:"a"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Capacity != 4 || d.Total != 6 || d.Dropped != 2 {
		t.Fatalf("dump meta = %+v, want capacity 4, total 6, dropped 2", d)
	}
	if len(d.Events) != 4 {
		t.Fatalf("dump events = %d, want 4", len(d.Events))
	}
	if d.Events[0].Seq != 3 || d.Events[0].Kind != "sweep_point" || d.Events[0].Name != "gemm" {
		t.Fatalf("first retained event = %+v", d.Events[0])
	}
}

// TestTraceFilter pins the request-correlation story: events recorded
// under a trace ID can be sliced back out of the ring as the filtered
// /flight?trace= JSON dump.
func TestTraceFilter(t *testing.T) {
	r := New(16)
	r.Enable()
	r.SpanBegin(1, 0, "serve.request", "aaa0")
	r.SpanBegin(2, 0, "serve.request", "bbb1")
	r.SpanEnd(1, "serve.request", time.Millisecond, "aaa0")
	r.CounterAdd("c", 1) // no trace: must not match any filter
	r.Log("INFO", "request", 1, "aaa0")

	type dump struct {
		Filter string `json:"filter"`
		Total  uint64 `json:"total"`
		Events []struct {
			Trace string `json:"trace"`
			Kind  string `json:"kind"`
		} `json:"events"`
	}
	filtered := func(trace string) dump {
		t.Helper()
		var buf bytes.Buffer
		if err := r.WriteJSONTrace(&buf, trace); err != nil {
			t.Fatal(err)
		}
		var d dump
		if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
			t.Fatalf("filtered dump is not valid JSON: %v", err)
		}
		if d.Filter != trace || d.Total != 5 {
			t.Fatalf("dump meta = %+v, want filter %s over total 5", d, trace)
		}
		return d
	}

	d := filtered("aaa0")
	if len(d.Events) != 3 {
		t.Fatalf("filtered dump(aaa0) = %d events, want 3", len(d.Events))
	}
	for _, e := range d.Events {
		if e.Trace != "aaa0" {
			t.Fatalf("filtered dump leaked trace %q", e.Trace)
		}
	}
	d = filtered("bbb1")
	if len(d.Events) != 1 || d.Events[0].Trace != "bbb1" || d.Events[0].Kind != "span_begin" {
		t.Fatalf("filtered dump events = %+v, want the one bbb1 span_begin", d.Events)
	}
}

func TestReset(t *testing.T) {
	r := New(4)
	r.Enable()
	r.CounterAdd("c", 1)
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("Reset did not clear the ring")
	}
	r.CounterAdd("c", 2)
	if evs := r.Snapshot(); len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("recorder unusable after Reset: %+v", evs)
	}
}
