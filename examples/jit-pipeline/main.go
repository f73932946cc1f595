// jit-pipeline demonstrates the model-generator-as-a-library use case of
// Sec. IV-M (iii): a JIT-style compilation service (as found in deep
// learning frameworks) that receives kernels with concrete problem sizes
// at run time and must pick tile sizes in milliseconds, per device.
//
// The example registers a small "workload stream" of kernels with varying
// shapes, selects tiles for each on both GPUs with a per-device cache,
// and reports the end-to-end selection latency — the property Sec. V-G
// measures (the paper: ~1.3 s with Z3; the finite-domain solver here is
// far faster, with the same 4-7 solver calls per model).
//
// Run with:
//
//	go run ./examples/jit-pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	eatss "repro"
)

// request is one JIT compilation request: kernel + shape + device.
type request struct {
	kernel string
	params map[string]int64
	gpu    *eatss.GPU
}

// tileCache memoizes selections per (device, kernel, shape).
type tileCache struct {
	entries map[string]*eatss.Selection
	hits    int
	misses  int
}

func key(r request) string {
	return fmt.Sprintf("%s|%s|%v", r.gpu.Name, r.kernel, r.params)
}

func (c *tileCache) lookup(r request) (*eatss.Selection, error) {
	if sel, ok := c.entries[key(r)]; ok {
		c.hits++
		return sel, nil
	}
	c.misses++
	k, err := eatss.Kernel(r.kernel)
	if err != nil {
		return nil, err
	}
	// Stage the analysis once per miss; the warp-fraction fallback
	// re-solves against the same artifact instead of re-analyzing.
	prog, err := eatss.Analyze(k, r.params)
	if err != nil {
		return nil, err
	}
	// Problem-size-aware selection at a 50% shared split, with
	// warp-fraction fallback.
	sel, err := prog.SelectSplit(context.Background(), r.gpu, 0.5, eatss.FP64)
	if err != nil {
		return nil, err
	}
	c.entries[key(r)] = sel
	return sel, nil
}

func main() {
	ga, xv := eatss.GA100(), eatss.Xavier()

	// A stream of shapes, as a DL framework would see across layers:
	// repeated shapes must hit the cache.
	var stream []request
	for _, n := range []int64{512, 1024, 2048, 1024, 512, 2048} {
		stream = append(stream, request{"gemm", map[string]int64{"NI": n, "NJ": n, "NK": n}, ga})
	}
	for _, n := range []int64{1024, 2048, 1024} {
		stream = append(stream, request{"conv-2d", map[string]int64{"NI": n, "NJ": n, "KW": 9}, ga})
	}
	stream = append(stream,
		request{"gemm", map[string]int64{"NI": 1024, "NJ": 1024, "NK": 1024}, xv},
		request{"mttkrp", map[string]int64{"I": 128, "J": 128, "K": 128, "L": 128}, ga},
	)

	cache := &tileCache{entries: map[string]*eatss.Selection{}}
	start := time.Now()
	for i, r := range stream {
		t0 := time.Now()
		sel, err := cache.lookup(r)
		if err != nil {
			log.Fatalf("request %d (%s): %v", i, r.kernel, err)
		}
		fmt.Printf("req %2d  %-8s %-7s shape=%v -> tiles=%v (%d solver calls, %v)\n",
			i, r.kernel, r.gpu.Name, r.params, sel.Tiles, sel.SolverCalls,
			time.Since(t0).Round(time.Microsecond))
	}
	elapsed := time.Since(start)
	fmt.Printf("\n%d requests in %v (%.1f req/s), cache: %d hits / %d misses\n",
		len(stream), elapsed.Round(time.Millisecond),
		float64(len(stream))/elapsed.Seconds(), cache.hits, cache.misses)
	fmt.Println("=> fast enough to sit inside a JIT compilation pipeline (Sec. IV-M iii).")
}
