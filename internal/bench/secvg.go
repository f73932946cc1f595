package bench

import (
	"context"
	"time"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
)

// SecVGRow aggregates solver effort for one loop-depth class.
type SecVGRow struct {
	Depth       int
	Kernels     int
	AvgTime     time.Duration
	AvgCalls    float64
	MaxTime     time.Duration
	TotalModels int
}

// SecVGResult reproduces Sec. V-G: the compile-time overhead of the
// solver-driven iterative scheme, grouped by maximum kernel loop depth.
// The paper reports 1.1s / 1.4s / 1.4s / 2.2s for 2D/3D/4D/5D kernels
// with Z3; the finite-domain solver here is orders of magnitude faster,
// but the per-depth growth and the small solver-call counts (4–7 calls
// on average) are the reproducible shape.
type SecVGResult struct {
	GPU  string
	Rows []SecVGRow
	// OverallAvgCalls is the mean number of solver calls per EATSS run.
	OverallAvgCalls float64
	// OverallAvgTime is the mean end-to-end selection time.
	OverallAvgTime time.Duration
}

// SecVG measures solver overhead across the catalog on g.
func SecVG(g *arch.GPU) *SecVGResult {
	type acc struct {
		n     int
		calls int
		total time.Duration
		max   time.Duration
	}
	byDepth := map[int]*acc{}
	totalCalls, totalRuns := 0, 0
	var totalTime time.Duration

	for _, name := range affine.Catalog() {
		k := affine.MustLookup(name)
		sel, err := mustAnalyze(k, nil).SelectSplit(context.Background(), g, 0.5, eatss.FP64)
		if err != nil {
			continue
		}
		d := k.MaxDepth()
		a, ok := byDepth[d]
		if !ok {
			a = &acc{}
			byDepth[d] = a
		}
		a.n++
		a.calls += sel.SolverCalls
		a.total += sel.SolveTime
		if sel.SolveTime > a.max {
			a.max = sel.SolveTime
		}
		totalCalls += sel.SolverCalls
		totalRuns++
		totalTime += sel.SolveTime
	}

	out := &SecVGResult{GPU: g.Name}
	for d := 1; d <= 8; d++ {
		a, ok := byDepth[d]
		if !ok {
			continue
		}
		out.Rows = append(out.Rows, SecVGRow{
			Depth:       d,
			Kernels:     a.n,
			AvgTime:     a.total / time.Duration(a.n),
			AvgCalls:    float64(a.calls) / float64(a.n),
			MaxTime:     a.max,
			TotalModels: a.n,
		})
	}
	if totalRuns > 0 {
		out.OverallAvgCalls = float64(totalCalls) / float64(totalRuns)
		out.OverallAvgTime = totalTime / time.Duration(totalRuns)
	}
	return out
}

// Render prints the overhead table.
func (f *SecVGResult) Render() string {
	t := NewTable("Sec. V-G: solver overhead by kernel loop depth ("+f.GPU+")",
		"depth", "kernels", "avg solver calls", "avg solve time", "max solve time")
	for _, r := range f.Rows {
		t.AddRow(r.Depth, r.Kernels, r.AvgCalls,
			r.AvgTime.Round(time.Microsecond).String(),
			r.MaxTime.Round(time.Microsecond).String())
	}
	s := t.String()
	sum := NewTable("overall", "metric", "value")
	sum.AddRow("avg solver calls per run", f.OverallAvgCalls)
	sum.AddRow("avg end-to-end time", f.OverallAvgTime.Round(time.Microsecond).String())
	return s + sum.String()
}
