package eatss_test

// The benchmark harness: one sub-benchmark per entry of the experiment
// registry (internal/bench.Experiments; see DESIGN.md's per-experiment
// index), each on the GA100 like cmd/benchtables' default. Each
// sub-benchmark regenerates its artifact through the full pipeline and
// prints the rendered text once, so
//
//	go test -run '^$' -bench '^BenchmarkExperiments$' .
//
// reproduces the evaluation in one run. Shape assertions live in
// internal/bench's tests; these benchmarks measure the cost of
// regeneration and emit the artifacts themselves.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
)

var printOnce sync.Map

func BenchmarkExperiments(b *testing.B) {
	g := arch.GA100()
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				text, _ := e.Run(g)
				// Print once per process, however many times the
				// harness re-invokes the sub-benchmark.
				if _, loaded := printOnce.LoadOrStore(e.ID, true); !loaded {
					fmt.Printf("\n%s\n", text)
				}
			}
		})
	}
}
