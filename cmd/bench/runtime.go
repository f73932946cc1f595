package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampleEvery is the heap sampling period; heapWindow is the window
// whose peak is one reading of peak_heap_mb.
const (
	heapSampleEvery = 10 * time.Millisecond
	heapWindow      = time.Second
)

// heapSampler samples the Go heap's in-use spans (MemStats' HeapInuse,
// read through runtime/metrics so sampling never stops the world) and
// keeps each window's peak. The median window peak is the steady-state
// high-water mark: one GC cycle that happens to run late moves one window,
// not the metric.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64 // MB, per window
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var peak uint64
		windowStart := time.Now()
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			if time.Since(windowStart) >= heapWindow {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				peak, windowStart = 0, time.Now()
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it, and returns the median window
// peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(sortedCopy(h.peaks))
}

// gcCPU returns the process's cumulative GC CPU seconds and the CPU
// seconds available to it (GOMAXPROCS integrated over wall time).
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runtimeUse accumulates allocation over a set of measured calls and GC
// CPU over the span between begin and put.
type runtimeUse struct {
	gc0, total0 float64
	allocBytes  uint64
	ops         int
}

func (u *runtimeUse) begin() { u.gc0, u.total0 = gcCPU() }

// measure runs fn and charges its allocations as one op.
func (u *runtimeUse) measure(fn func()) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	fn()
	metrics.Read(s)
	u.allocBytes += s[0].Value.Uint64() - before
	u.ops++
}

// put stores runtime.alloc_kb_per_op and runtime.gc_cpu_frac.
func (u *runtimeUse) put(m metricValues) {
	gc, total := gcCPU()
	m["runtime.alloc_kb_per_op"] = ratio(float64(u.allocBytes)/1024, float64(u.ops))
	m["runtime.gc_cpu_frac"] = ratio(gc-u.gc0, total-u.total0)
}
