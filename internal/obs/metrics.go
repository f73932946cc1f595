package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The process-wide metric registry. Instruments are registered once
// (typically in package-level vars) and updated with lock-free atomics;
// registration by an existing name returns the existing instrument, so
// independent packages can share a series.
var reg struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// NewCounter registers (or finds) the counter named name.
func NewCounter(name string) *Counter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.counters == nil {
		reg.counters = make(map[string]*Counter)
	}
	if c, ok := reg.counters[name]; ok {
		return c
	}
	c := &Counter{}
	reg.counters[name] = c
	return c
}

// Add increments the counter by d when the layer is enabled.
func (c *Counter) Add(d int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge registers (or finds) the gauge named name.
func NewGauge(name string) *Gauge {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.gauges == nil {
		reg.gauges = make(map[string]*Gauge)
	}
	if g, ok := reg.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	reg.gauges[name] = g
	return g
}

// Set stores v when the layer is enabled.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets: counts[i] holds
// observations <= bounds[i]; the final slot is the overflow bucket.
// Each bucket can additionally hold one exemplar — the trace ID of the
// most recent traced observation that landed in it — so the latency
// distribution links back to concrete requests in the trace store.
type Histogram struct {
	name      string
	bounds    []float64
	counts    []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the request trace it came from.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// NewHistogram registers (or finds) the histogram named name with the
// given ascending upper bounds. Bounds are fixed at first registration.
func NewHistogram(name string, bounds ...float64) *Histogram {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.hists == nil {
		reg.hists = make(map[string]*Histogram)
	}
	if h, ok := reg.hists[name]; ok {
		return h
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{
		name:      name,
		bounds:    bs,
		counts:    make([]atomic.Int64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
	reg.hists[name] = h
	return h
}

// Observe records one sample when the layer is enabled.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	// Lock-free float accumulation via CAS on the bit pattern.
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// publishes it as the bucket's exemplar — the serve layer's form, tying
// each latency bucket to the last request that landed in it.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil || !enabled.Load() {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// ObserveN records n identical samples of value v in one update — the
// batched form the solver uses to publish a whole per-solve depth
// profile without one atomic round-trip per search node.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 || !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	// Counts[i] holds observations <= Bounds[i]; the final entry is the
	// overflow bucket.
	Counts []int64 `json:"counts"`
	// Exemplars[i] is bucket i's most recent traced observation, nil if
	// the bucket never saw one. Omitted entirely when no bucket has one.
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// Mean returns Sum/Count (0 for an empty histogram).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// MetricsSnapshot is a point-in-time copy of every registered metric.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the whole registry. Zero-valued instruments are
// omitted so an idle registry snapshots empty.
func Snapshot() MetricsSnapshot {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	s := MetricsSnapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, c := range reg.counters {
		if v := c.v.Load(); v != 0 {
			s.Counters[name] = v
		}
	}
	for name, g := range reg.gauges {
		if v := g.Value(); v != 0 {
			s.Gauges[name] = v
		}
	}
	for name, h := range reg.hists {
		if h.count.Load() == 0 {
			continue
		}
		hs := HistogramSnapshot{
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sumBits.Load()),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		for i := range h.exemplars {
			if ex := h.exemplars[i].Load(); ex != nil {
				if hs.Exemplars == nil {
					hs.Exemplars = make([]*Exemplar, len(h.exemplars))
				}
				hs.Exemplars[i] = ex
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

func resetMetrics() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, c := range reg.counters {
		c.v.Store(0)
	}
	for _, g := range reg.gauges {
		g.bits.Store(0)
	}
	for _, h := range reg.hists {
		h.count.Store(0)
		h.sumBits.Store(0)
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		for i := range h.exemplars {
			h.exemplars[i].Store(nil)
		}
	}
}
