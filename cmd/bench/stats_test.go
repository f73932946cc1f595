package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // exactly 10 samples beyond
		{999, 0.99, 990, false},  // 9 beyond
		{100, 0.90, 90, true},    // 10 beyond
		{99, 0.90, 90, false},    // 9 beyond
		{40, 0.75, 30, true},     // 10 beyond
		{20, 0.50, 10, true},     // 10 beyond
		{19, 0.50, 10, false},    // 9 beyond
		{0, 0.50, 0, false},      // nothing measured
		{5000, 0.99, 4950, true}, // 50 beyond
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(%d samples, %g) = %g, %t; want %g, %t", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTailFallsBackToAdmittedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n        int
		want     float64
		wantQ    float64
		gotValue float64
	}{
		{2000, 0.99, 0.99, 1980},
		{500, 0.99, 0.90, 450}, // p99 has 5 beyond
		{48, 0.99, 0.75, 36},   // p90 has 4 beyond
		{48, 0.75, 0.75, 36},
		{6, 0.99, 0.50, 3}, // nothing admitted: the median, labelled as such
	} {
		v, q := tail(seq(tc.n), tc.want)
		if v != tc.gotValue || q != tc.wantQ {
			t.Errorf("tail(%d samples, want p%g) = %g at p%g; want %g at p%g",
				tc.n, tc.want*100, v, q*100, tc.gotValue, tc.wantQ*100)
		}
	}
}

func TestMedianAveragesMiddlePair(t *testing.T) {
	// A pool split evenly between fast and slow inputs: the median sits
	// between the two clusters instead of on either's edge.
	if got := median([]float64{1, 2, 100, 200}); got != 51 {
		t.Errorf("median = %g, want 51", got)
	}
	if got := median([]float64{1, 2, 3}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestReportPrintsEveryMetricThenJSON(t *testing.T) {
	o := newOutcome()
	o.attempted, o.failed = 7, 1
	o.metrics["p50_ms"] = 1.25
	var b bytes.Buffer
	if err := report(&b, endToEnd, o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(endToEnd)+1 {
		t.Fatalf("got %d lines, want %d metric lines and the JSON line:\n%s", len(lines), len(endToEnd), b.String())
	}
	for i, d := range endToEnd {
		if f := strings.Fields(lines[i]); len(f) != 3 || f[0] != d.Name || f[2] != d.Unit {
			t.Errorf("line %d = %q, want %q <value> %q", i, lines[i], d.Name, d.Unit)
		}
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("JSON line lacks %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("JSON line has %d keys, want exactly 4", len(got))
	}
	if string(got["correct"]) != "false" {
		t.Errorf("correct = %s with a failed op, want false", got["correct"])
	}
}
