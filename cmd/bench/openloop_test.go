package main

import (
	"testing"
	"time"
)

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	// Request 0 stalls for 60 ms; requests 1..5 fall due during the stall
	// and are served instantly once it ends. Timed from their due times,
	// each is charged the part of the stall it waited through.
	const stall = 60 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
		40 * time.Millisecond, 50 * time.Millisecond}
	ts := openLoop(due, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := 1; i < len(due); i++ {
		if waited := stall - due[i]; ts[i].latency < waited {
			t.Errorf("request %d latency %v, want at least %v: it waited behind the stall", i, ts[i].latency, waited)
		}
		if ts[i].service > 5*time.Millisecond {
			t.Errorf("request %d service time %v, want ~0: the stall is not its own", i, ts[i].service)
		}
		if ts[i].lag < stall-due[i] {
			t.Errorf("request %d lag %v, want at least %v", i, ts[i].lag, stall-due[i])
		}
	}
	// When request 1 is finally sent, requests 2..5 are also due.
	if ts[1].backlog != 4 {
		t.Errorf("backlog at request 1 = %d, want 4", ts[1].backlog)
	}
}

// steady returns n timings with the given latency and a lag that grows
// linearly from 0 to growth.
func steady(n int, latency, growth time.Duration) []timing {
	ts := make([]timing, n)
	for i := range ts {
		lag := growth * time.Duration(i) / time.Duration(n)
		ts[i] = timing{lag: lag, latency: latency + lag}
	}
	return ts
}

func okAll(n int) []bool {
	ok := make([]bool, n)
	for i := range ok {
		ok[i] = true
	}
	return ok
}

func TestMaxOKRateRejectsGrowingBacklog(t *testing.T) {
	steps := []step{{rate: 500}, {rate: 1000}, {rate: 2000}}
	res := []stepResult{
		{timings: steady(2000, time.Millisecond, 0), ok: okAll(2000)},
		// Within the latency limit throughout, but the generator falls
		// steadily behind: the rate was not really sustained.
		{timings: steady(2000, time.Millisecond, 2*lagGrowthLimit), ok: okAll(2000)},
		{timings: steady(2000, 2*latencyLimit, 0), ok: okAll(2000)},
	}
	for _, r := range res[1].timings {
		if r.latency > latencyLimit {
			t.Fatalf("test setup: step 2 latency %v exceeds the limit", r.latency)
		}
	}
	if got := maxOKRate(steps, res); got != 500 {
		t.Errorf("maxOKRate = %g, want 500: 1000/s has a growing backlog, 2000/s misses the latency limit", got)
	}
	res[1].timings = steady(2000, time.Millisecond, lagGrowthLimit/2)
	if got := maxOKRate(steps, res); got != 1000 {
		t.Errorf("maxOKRate = %g, want 1000 once the lag stays flat", got)
	}
}

func TestFailedRequestsMissTheLatencyLimit(t *testing.T) {
	res := stepResult{timings: steady(2000, time.Millisecond, 0), ok: okAll(2000)}
	for i := 0; i < 40; i++ { // 2% failed: the p99 is a failure
		res.ok[i] = false
	}
	if res.stepOK() {
		t.Error("a step whose p99 request failed passed")
	}
}
