// Package serve is the tile-selection service layer behind cmd/eatssd:
// a long-running JSON-over-HTTP front end for the
// lint→analyze→solve→compile→simulate pipeline, built for sustained
// concurrent traffic over the same small universe of affine kernels.
//
// The layer adds four service-side mechanisms on top of the eatss
// public API, all exercised by internal tests, including a catalog-wide
// herd over real HTTP (TestCatalogHerdOverHTTP):
//
//   - Two-tier caching. Tier 1 is an LRU of *eatss.Program artifacts
//     keyed on Program.Fingerprint() — the staged analysis is computed
//     once per distinct (kernel, params) and shared by every request.
//     Tier 2 is an LRU of solved artifacts (Selections, Bests) keyed on
//     (fingerprint, GPU, options) — the service analogue of search
//     memoization: a kernel solved once is served from memory forever
//     after (until evicted).
//   - Request coalescing. A thundering herd of identical cold-cache
//     solve requests triggers exactly one underlying solve; the rest
//     wait on the leader's result (singleflight). A waiter's deadline
//     expiring abandons the wait without cancelling the shared work.
//   - Admission control. Heavy operations (solve, best, compile,
//     simulate) pass a bounded-slot gate: at most MaxInflight execute
//     at once, at most MaxQueue wait behind them, and everything beyond
//     that is shed immediately with HTTP 429 instead of queueing into
//     collapse.
//   - Per-request deadlines. Every request runs under a context with a
//     deadline (client-supplied timeout_ms, clamped to MaxTimeout);
//     the ctx plumbing through solver/compile/simulate turns a blown
//     deadline into a fast HTTP 504, never a stuck worker.
//
// Everything is instrumented through the internal/obs registry
// (serve.requests, serve.shed, serve.coalesced, cache hit/miss
// counters, a request-latency histogram), and the introspection
// endpoints of internal/obs/serve (/metrics, /progress, /profile,
// /debug/requests, pprof) are mounted on the same mux.
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	eatss "repro"

	"repro/internal/lru"
	"repro/internal/obs"
	obsserve "repro/internal/obs/serve"
)

// Service-level telemetry, exported at /metrics.
var (
	mRequests   = obs.NewCounter("serve.requests")
	mErrors     = obs.NewCounter("serve.errors")
	mTimeouts   = obs.NewCounter("serve.timeouts")
	mCancelled  = obs.NewCounter("serve.cancelled")
	mShed       = obs.NewCounter("serve.shed")
	mCoalesced  = obs.NewCounter("serve.coalesced")
	mSolves     = obs.NewCounter("serve.solves")
	mPanics     = obs.NewCounter("serve.panics") // recovered, answered 500
	mProgHits   = obs.NewCounter("serve.program_cache_hits")
	mProgMisses = obs.NewCounter("serve.program_cache_misses")
	mSelHits    = obs.NewCounter("serve.selection_cache_hits")
	mSelMisses  = obs.NewCounter("serve.selection_cache_misses")
	// mInfeasibleTiles counts explicit-tiles requests rejected by the
	// static feasibility analysis (422 before any heavy work).
	mInfeasibleTiles = obs.NewCounter("serve.infeasible_tiles")
	mInflight        = obs.NewGauge("serve.inflight")
	mQueueDepth      = obs.NewGauge("serve.queue_depth")
	mRequestSec      = obs.NewHistogram("serve.request_seconds",
		1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10)
	// mQueueWait explains shedding decisions: how long admitted requests
	// actually waited for a slot. The fast path observes 0, so the count
	// equals admissions and the >0 buckets give the queued fraction.
	mQueueWait = obs.NewHistogram("serve.queue_wait_seconds",
		1e-5, 1e-4, 1e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10)
)

// Config tunes the service. The zero value is usable: every field has
// a production default applied by New.
type Config struct {
	// MaxInflight bounds concurrently executing heavy operations
	// (solve, best, compile, simulate). 0 means GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds how many heavy operations may wait for a slot
	// beyond the in-flight bound; arrivals past it are shed with 429.
	// 0 means 4x MaxInflight.
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout clamps client-requested deadlines and bounds the
	// detached execution of coalesced work. Zero means 30s / 2m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// ProgramCacheSize / SelectionCacheSize bound the two LRU tiers
	// (entries, not bytes). Zero means 256 / 4096.
	ProgramCacheSize   int
	SelectionCacheSize int
	// AccessLog, when non-nil, receives one wide-event Info record per
	// request (trace ID, op, kernel fingerprint, GPU, evaluator,
	// cache/coalesce flags, queue wait, solver rounds, outcome, latency).
	// nil disables access logging.
	AccessLog *slog.Logger
	// DisableTracing turns off per-request span collection and the
	// /debug/requests trace store. Requests still get trace IDs, the
	// wide-event log line, and metrics.
	DisableTracing bool
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.ProgramCacheSize <= 0 {
		c.ProgramCacheSize = 256
	}
	if c.SelectionCacheSize <= 0 {
		c.SelectionCacheSize = 4096
	}
	return c
}

// Server is the tile-selection service. Create with New, expose with
// Handler or Start. Safe for concurrent use.
type Server struct {
	cfg        Config
	programs   *lru.Cache[*eatss.Program]
	selections *lru.Cache[any] // *eatss.Selection or *eatss.Best by key prefix
	flights    group
	adm        *admission
	startedAt  time.Time
	solves     atomic.Int64 // underlying (non-coalesced, non-cached) solves

	// solveHook, when set (tests), runs inside the singleflight leader
	// after admission, before the underlying solve — the seam the
	// concurrency-contract tests use to hold a solve open.
	solveHook func(key string)
}

// SetSolveHook installs fn as the solve-side test seam: it runs inside
// the singleflight leader after admission control grants a slot and
// before the underlying solve. End-to-end tests outside this package
// use it to hold the execution slot open and build admission
// contention (sheds, queue-wait timeouts) by construction — on a
// single-CPU machine millisecond solves never overlap, so timing-based
// contention is unwinnable. Set before serving traffic; the hook is
// not synchronized against in-flight requests.
func (s *Server) SetSolveHook(fn func(key string)) { s.solveHook = fn }

// New builds a Server from cfg (zero-value fields get defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:        cfg,
		programs:   lru.New[*eatss.Program](cfg.ProgramCacheSize),
		selections: lru.New[any](cfg.SelectionCacheSize),
		adm:        newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		startedAt:  obs.Now(),
	}
}

// Handler returns the service mux: the /v1 JSON API, /healthz, and the
// live-introspection endpoints (/metrics, /progress, /profile,
// /debug/requests, pprof) from internal/obs/serve.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, op := range ops {
		mux.HandleFunc("/v1/"+op, s.handleOp(op))
	}
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/", obsserve.Handler())
	return mux
}

// Start listens on addr and serves the API in the background on the
// hardened listener lifecycle of internal/obs/serve (header timeouts,
// graceful Shutdown).
func (s *Server) Start(addr string) (*obsserve.Server, error) {
	return obsserve.StartHandler(addr, s.Handler())
}

// CacheStats is one LRU tier's occupancy and effectiveness.
type CacheStats struct {
	Len    int   `json:"len"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats is a point-in-time snapshot of the service counters, served at
// /healthz and consumed by the load generator's sanity checks.
type Stats struct {
	Solves         int64      `json:"solves"`
	InFlight       int        `json:"inflight"`
	Queued         int64      `json:"queued"`
	ProgramCache   CacheStats `json:"program_cache"`
	SelectionCache CacheStats `json:"selection_cache"`
	UptimeSec      float64    `json:"uptime_sec"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Solves:    s.solves.Load(),
		InFlight:  s.adm.inFlight(),
		Queued:    s.adm.queueDepth(),
		UptimeSec: obs.Now().Sub(s.startedAt).Seconds(),
	}
	st.ProgramCache.Len = s.programs.Len()
	st.ProgramCache.Hits, st.ProgramCache.Misses, _ = s.programs.Stats()
	st.SelectionCache.Len = s.selections.Len()
	st.SelectionCache.Hits, st.SelectionCache.Misses, _ = s.selections.Stats()
	return st
}

// Warm pre-analyzes the built-in kernel catalog into the program cache
// so the first requests after boot skip the analysis stage. It returns
// how many programs were staged; kernels that fail to analyze (none in
// the shipped catalog) are skipped.
func (s *Server) Warm(ctx context.Context) int {
	n := 0
	for _, name := range eatss.Kernels() {
		k, err := eatss.Kernel(name)
		if err != nil {
			continue
		}
		if _, _, _, err := s.program(ctx, k, nil); err == nil {
			n++
		}
	}
	return n
}

// program returns the cached analysis artifact for (kernel, params),
// building and inserting it on a miss. Concurrent misses on the same
// fingerprint may both build — the artifact is immutable and the
// analysis is ~100µs, so duplicate builds are cheaper than a second
// coalescing layer; the expensive tier (solves) does coalesce.
func (s *Server) program(ctx context.Context, k *eatss.AffineKernel, params map[string]int64) (*eatss.Program, string, bool, error) {
	fp := eatss.FingerprintKernel(k, params)
	if p, ok := s.programs.Get(fp); ok {
		mProgHits.Add(1)
		return p, fp, true, nil
	}
	mProgMisses.Add(1)
	p, err := eatss.AnalyzeCtx(ctx, k, params)
	if err != nil {
		return nil, fp, false, err
	}
	s.programs.Put(fp, p)
	return p, fp, false, nil
}

// solved is the two-tier read path for solve-class work: the selection
// LRU first, then singleflight coalescing, then admission control, then
// the underlying solve. fn runs detached from any single caller's
// context — a waiter whose deadline expires abandons the wait, the
// shared work finishes and lands in the cache for the next request.
func (s *Server) solved(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (v any, cached, coalesced bool, err error) {
	if v, ok := s.selections.Get(key); ok {
		mSelHits.Add(1)
		return v, true, false, nil
	}
	mSelMisses.Add(1)
	v, coalesced, err = s.flights.do(ctx, key, func() (any, error) {
		// Double-check under the flight: a previous leader may have
		// populated the cache between our miss and our takeoff.
		if v, ok := s.selections.Get(key); ok {
			return v, nil
		}
		wctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.MaxTimeout)
		defer cancel()
		if err := s.adm.acquire(wctx); err != nil {
			return nil, err
		}
		defer s.adm.release()
		if s.solveHook != nil {
			s.solveHook(key)
		}
		s.solves.Add(1)
		mSolves.Add(1)
		v, err := fn(wctx)
		if err == nil {
			s.selections.Put(key, v)
		}
		return v, err
	})
	if coalesced {
		mCoalesced.Add(1)
	}
	return v, false, coalesced, err
}

// heavy runs a non-coalescable heavy operation (compile, simulate with
// explicit tiles) under admission control with the request's context.
func (s *Server) heavy(ctx context.Context, fn func() error) error {
	if err := s.adm.acquire(ctx); err != nil {
		return err
	}
	defer s.adm.release()
	return fn()
}
