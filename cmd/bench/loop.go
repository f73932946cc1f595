package main

import (
	"math/rand/v2"
	"time"
)

// loopResult is a closed loop's record: each op's latency in ms, the
// loop's wall time and the work it did (ops, or points for sweeps).
type loopResult struct {
	lat  []float64
	wall time.Duration
	work float64
}

// closedLoop runs one caller over n inputs, pass after pass in a fresh
// seeded order, until d has elapsed; d == 0 runs exactly one pass. Only
// whole passes run, so every input is measured equally often. Each run is
// timed; check sees its result after the timing is taken. work(i) is
// input i's work units.
func closedLoop[R any](r *rand.Rand, n int, d time.Duration, work func(i int) float64,
	run func(i int) R, check func(i int, res R)) loopResult {
	var lr loopResult
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		for _, i := range r.Perm(n) {
			t0 := time.Now()
			res := run(i)
			lr.lat = append(lr.lat, float64(time.Since(t0))/float64(time.Millisecond))
			check(i, res)
			lr.work += work(i)
		}
	}
	lr.wall = time.Since(start)
	return lr
}

func oneEach(int) float64 { return 1 }

// put stores p50_ms and throughput_per_sec, and notes the tail at the
// workload's percentile (or the highest one the percentile rule admits).
func (o *outcome) put(lr loopResult, wantTail float64) {
	s := sortedCopy(lr.lat)
	o.metrics["p50_ms"] = median(s)
	o.metrics["throughput_per_sec"] = lr.work / lr.wall.Seconds()
	v, q := tail(s, wantTail)
	o.note("%d ops in %.1f s; p50 %.4g ms, p%g %.4g ms", len(s), lr.wall.Seconds(), median(s), q*100, v)
}
