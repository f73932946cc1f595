package main

import (
	"testing"
	"time"
)

func TestSelfTimesOfNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.child", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		// Two overlapping children (parallel calls) cover [55, 80] once.
		{Name: "b.x", Start: 55, End: 70, Parent: 3},
		{Name: "b.y", Start: 60, End: 80, Parent: 3},
		// A child ending past its parent counts only inside the parent.
		{Name: "b.z", Start: 85, End: 95, Parent: 3},
	}
	want := []int64{
		100 - 30 - 40, // op: children a and b
		30 - 10,       // a: a.child
		10,
		40 - 25 - 5, // b: b.x ∪ b.y = 25, b.z clipped to 5
		15, 20, 10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerLedgerAndCoverage(t *testing.T) {
	tr := newTracer(maxKeptSpans)
	for op := 0; op < 3; op++ {
		tr.beginOp()
		a := tr.begin("layer.a")
		b := tr.begin("layer.b")
		time.Sleep(time.Millisecond)
		tr.end(b)
		tr.end(a)
		c := tr.begin("layer.c")
		tr.endCalls(c, 4)
		tr.endOp()
	}
	if got := tr.ledger["layer.b"].calls; got != 3 {
		t.Errorf("layer.b calls = %d, want 3", got)
	}
	if got := tr.ledger["layer.c"].calls; got != 12 {
		t.Errorf("layer.c calls = %d, want 12 (a span covering 4 calls, 3 times)", got)
	}
	if self := tr.ledger["layer.b"].self; self < 3*time.Millisecond {
		t.Errorf("layer.b self = %v, want at least the 3 ms slept in it", self)
	}
	if a, b := tr.ledger["layer.a"].self, tr.ledger["layer.b"].self; a >= b {
		t.Errorf("layer.a self %v >= layer.b self %v: the child's time was not subtracted", a, b)
	}
	if got, want := tr.perCall("layer.c", time.Nanosecond), float64(tr.ledger["layer.c"].self)/12; got != want {
		t.Errorf("layer.c per call = %g ns, want %g", got, want)
	}
	if cov := tr.coverage(); cov < 0.5 || cov > 1 {
		t.Errorf("coverage = %g, want most of each op inside layer spans", cov)
	}
	if len(tr.kept) != 3*4 {
		t.Errorf("kept %d spans, want 12", len(tr.kept))
	}
}
