// Package serve exposes the observability layer over HTTP for live
// introspection: while a long sweep or solve runs, `curl` (or a
// Prometheus scraper, or a Chrome trace viewer) can watch it from
// outside the process. All endpoints are read-only snapshots of the
// obs/flight state; serving costs nothing to the instrumented hot
// paths beyond what the obs layer already pays.
//
// Endpoints:
//
//	/metrics   Prometheus text exposition of the metric registry,
//	           including process health (goroutines, heap, GC pauses,
//	           uptime) refreshed at scrape time, with trace-ID
//	           exemplars on histogram buckets
//	/progress  JSON live view: sweep points done/total + ETA, cache
//	           hit rate, and the solver's current incumbent objective
//	/trace     Chrome-trace JSON of the span tree recorded so far
//	/flight    flight-recorder ring buffer dump (JSON);
//	           ?trace=<id> keeps only that request's events
//	/profile   latest published energy-attribution profile (JSON);
//	           ?view=surface returns the latest sweep surface,
//	           ?view=report the rendered attribution table
//	/debug/requests   tail-sampled per-request trace store: active +
//	           recent tables, ?trace=<id> drill-down
//	           (&view=tree|chrome|json)
//	/debug/pprof/...  the standard runtime profiles
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/profile"
)

// Handler returns the introspection mux.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", handleIndex)
	mux.HandleFunc("/metrics", handleMetrics)
	mux.HandleFunc("/progress", handleProgress)
	mux.HandleFunc("/trace", handleTrace)
	mux.HandleFunc("/flight", handleFlight)
	mux.HandleFunc("/profile", handleProfile)
	mux.HandleFunc("/debug/requests", handleRequests)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running introspection server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ReadHeaderTimeout bounds how long a connection may dribble its
// request headers before the server drops it. Without it a handful of
// slowloris connections can pin a long-lived process's listener
// goroutines forever; with it they cost at most this much each.
const ReadHeaderTimeout = 10 * time.Second

// Start listens on addr (e.g. "127.0.0.1:0" or ":8080") and serves the
// introspection handler in a background goroutine.
func Start(addr string) (*Server, error) {
	return StartHandler(addr, Handler())
}

// StartHandler is Start with a caller-supplied handler — cmd/eatssd
// mounts its API mux on the same hardened listener lifecycle.
func StartHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
	}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close/Shutdown
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately, dropping in-flight requests. It
// is the test-and-crash path; long-lived processes should prefer
// Shutdown.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and drains in-flight
// handlers, waiting until they finish or ctx expires (then the
// stragglers are dropped, like Close). The SIGINT/SIGTERM paths of
// cmd/eatssd and internal/cli use it so a deploy never cuts a response
// mid-body.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "eatss introspection endpoints:\n"+
		"  /metrics   Prometheus text exposition (incl. process health)\n"+
		"  /progress  live sweep/solve progress (JSON)\n"+
		"  /trace     Chrome trace of recorded spans\n"+
		"  /flight    flight-recorder dump (JSON; ?trace=<id> filters)\n"+
		"  /profile   latest energy-attribution profile (?view=surface|report)\n"+
		"  /debug/requests  tail-sampled request traces (?trace=<id>&view=tree|chrome)\n"+
		"  /debug/pprof/  runtime profiles\n")
}

func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	updateHealthMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, obs.Snapshot())
}

func handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := flight.Default.WriteJSONTrace(w, r.URL.Query().Get("trace")); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleProfile serves the most recently published energy-attribution
// profile. 404 until something publishes — the endpoint is passive, it
// never triggers a simulation.
func handleProfile(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("view") {
	case "surface":
		s := profile.LatestSurface()
		if s == nil {
			http.Error(w, "no sweep surface published yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := s.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case "report":
		p := profile.Latest()
		if p == nil {
			http.Error(w, "no profile published yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, p.Render())
	case "":
		p := profile.Latest()
		if p == nil {
			http.Error(w, "no profile published yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p) //nolint:errcheck // best-effort response write
	default:
		// A typo like ?view=suface must fail loudly, not silently fall
		// back to the default JSON document.
		http.Error(w, fmt.Sprintf("unknown view %q (valid: surface, report, or omit for JSON)",
			r.URL.Query().Get("view")), http.StatusBadRequest)
	}
}

// progressView is the /progress JSON document.
type progressView struct {
	Sweep     *sweepView     `json:"sweep,omitempty"`
	Incumbent *incumbentView `json:"incumbent,omitempty"`
}

type sweepView struct {
	Kernel string `json:"kernel"`
	// Evaluator is the backend the sweep runs on ("simulate",
	// "symbolic"; older producers may write "auto" or "").
	Evaluator string `json:"evaluator,omitempty"`
	Total     int64  `json:"total"`
	Done      int64  `json:"done"`
	CacheHits int64  `json:"cache_hits"`
	Skipped   int64  `json:"skipped"`
	// Pruned counts configurations removed by the static feasibility
	// pre-filter before evaluation (zero when pruning is off).
	Pruned int64 `json:"pruned"`
	// SymbolicPoints / ResidualPoints split the fresh evaluations by
	// backend: closed-form vs simulator fallback.
	SymbolicPoints int64   `json:"symbolic_points"`
	ResidualPoints int64   `json:"residual_points"`
	Finished       bool    `json:"finished"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	PointsPerSec   float64 `json:"points_per_sec"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	// EtaSec estimates the remaining wall-clock seconds from the
	// observed throughput; -1 while no point has completed yet.
	EtaSec float64 `json:"eta_sec"`
}

type incumbentView struct {
	Name      string  `json:"name"`
	Round     int64   `json:"round"`
	Objective int64   `json:"objective"`
	AgeSec    float64 `json:"age_sec"`
}

func handleProgress(w http.ResponseWriter, _ *http.Request) {
	var view progressView
	now := time.Now()
	if p := obs.CurrentSweep(); p != nil {
		done, hits := p.Done(), p.CacheHits()
		elapsed := now.Sub(time.Unix(0, p.StartNs)).Seconds()
		sv := &sweepView{
			Kernel:         p.Kernel,
			Evaluator:      p.Evaluator(),
			Total:          p.Total,
			Done:           done,
			CacheHits:      hits,
			Skipped:        p.Skipped(),
			Pruned:         p.Pruned(),
			SymbolicPoints: p.SymbolicPoints(),
			ResidualPoints: p.ResidualPoints(),
			Finished:       p.Finished(),
			ElapsedSec:     elapsed,
			EtaSec:         -1,
		}
		if done > 0 {
			sv.CacheHitRate = float64(hits) / float64(done)
			if elapsed > 0 {
				sv.PointsPerSec = float64(done) / elapsed
				sv.EtaSec = float64(p.Total-done) / sv.PointsPerSec
			}
		}
		view.Sweep = sv
	}
	if inc, ok := obs.Incumbent(); ok {
		view.Incumbent = &incumbentView{
			Name:      inc.Name,
			Round:     inc.Round,
			Objective: inc.Objective,
			AgeSec:    now.Sub(time.Unix(0, inc.TimeNs)).Seconds(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(view) //nolint:errcheck // best-effort response write
}

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Series are emitted in sorted name
// order, so the output is deterministic for a fixed snapshot. Metric
// names are sanitized to the [a-zA-Z_:][a-zA-Z0-9_:]* charset the
// format requires ("smt.nodes" becomes "smt_nodes").
func WritePrometheus(w io.Writer, s obs.MetricsSnapshot) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[name]))
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", pn, promFloat(b), cum, promExemplar(h, i))
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n", pn, h.Count, promExemplar(h, len(h.Bounds)))
		fmt.Fprintf(w, "%s_sum %s\n", pn, promFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}

// promExemplar renders a bucket's exemplar in the OpenMetrics style
// (" # {trace_id=\"...\"} value"), or "" when the bucket has none.
// Exemplars link a latency bucket to a concrete trace ID resolvable at
// /debug/requests?trace=<id>. Plain-Prometheus scrapers that reject the
// suffix can strip everything from " # " on.
func promExemplar(h obs.HistogramSnapshot, i int) string {
	if i >= len(h.Exemplars) || h.Exemplars[i] == nil {
		return ""
	}
	ex := h.Exemplars[i]
	return fmt.Sprintf(" # {trace_id=%q} %s", ex.TraceID, promFloat(ex.Value))
}

// promName maps a registry name onto the Prometheus metric-name charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
