package main

import (
	"maps"
	"slices"
	"testing"
	"time"
)

// tracedPass runs one traced pass of a workload at seed and returns its
// work counts. d == 0 is exactly one pass of a closed-loop workload.
func tracedPass(t *testing.T, wl workload, seed int64, d time.Duration) (map[string]int64, runner) {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: "../..", golden: g, seed: seed, seconds: d}
	r, err := wl.setup(e)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := r.(*serveBench); ok {
		// One connection serves requests strictly in order, so which
		// request hits the cache repeats exactly.
		s.conns = 1
	}
	o := newOutcome()
	r.runTraced(d, newTracer(0), o)
	if o.failed > 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", wl.name, seed, o.failed, o.attempted, o.problems)
	}
	if len(o.counts) == 0 {
		t.Fatalf("%s: the pass counted no work", wl.name)
	}
	return o.counts, r
}

// TestCountsRepeat runs one pass of every workload twice at seed 1 and
// once at seed 2. The program is deterministic, so the work counts (search
// nodes, solver calls, static skips, points by fate, requests by class and
// cache outcome) repeat exactly at the same seed. A closed-loop pass runs
// every pooled input once, so its counts are the same at any seed; the
// serve traffic is drawn from the seed, so seed 2 must send another
// sequence.
func TestCountsRepeat(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var d time.Duration
			if wl.name == "serve-mixed" {
				d = time.Second
			}
			a, ra := tracedPass(t, wl, 1, d)
			b, _ := tracedPass(t, wl, 1, d)
			c, rc := tracedPass(t, wl, 2, d)
			if !maps.Equal(a, b) {
				t.Errorf("seed 1 counts differ between runs:\n%v\n%v", a, b)
			}
			if wl.name != "serve-mixed" {
				if !maps.Equal(a, c) {
					t.Errorf("a full pass counted differently at seed 2:\n%v\n%v", a, c)
				}
				return
			}
			sa, sc := ra.(*serveBench).steps[0], rc.(*serveBench).steps[0]
			if slices.Equal(sa.reqs, sc.reqs) {
				t.Error("seeds 1 and 2 drew the same request sequence")
			}
		})
	}
}
