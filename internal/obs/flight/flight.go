// Package flight is what is left of a removed flight recorder: a
// Default whose Enable and Disable do nothing. It exists only for the
// flight.Default.Enable/Disable calls in cmd/bench's serve-mixed
// workload, a separate module that changes only with the benchmark.
// The next benchmark change (ROADMAP item 7) deletes those calls and
// this package. Nothing else may import it.
package flight

type recorder struct{}

// Default is the no-op recorder cmd/bench switches on and off.
var Default recorder

// Enable does nothing.
func (recorder) Enable() {}

// Disable does nothing.
func (recorder) Disable() {}
