// Command eatssd is the tile-selection daemon: a long-running HTTP
// service exposing the full lint/analyze/solve/compile/simulate
// pipeline as a JSON API, with two-tier artifact caching, request
// coalescing, per-request deadlines, and admission-controlled
// load-shedding (see internal/serve). The live-introspection endpoints
// (/metrics, /progress, /profile, /debug/requests, pprof) are mounted on
// the same listener, and every request is traced end to end into the
// tail-sampled trace store behind /debug/requests.
//
//	eatssd                       # listen on 127.0.0.1:7474
//	eatssd -addr :8080 -warm     # pre-analyze the catalog on boot
//	curl -s localhost:7474/v1/solve -d '{"kernel":"gemm"}'
package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7474", "listen address (e.g. :8080 or 127.0.0.1:0)")
	inflight := flag.Int("inflight", 0, "max concurrently executing heavy operations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max heavy operations queued beyond -inflight before shedding with 429 (0 = 4x inflight)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline when the request carries no timeout_ms (0 = 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "upper clamp on client-requested deadlines (0 = 2m)")
	programs := flag.Int("programs", 0, "program (analysis artifact) cache entries (0 = 256)")
	selections := flag.Int("selections", 0, "selection/best cache entries (0 = 4096)")
	warm := flag.Bool("warm", false, "pre-analyze the built-in kernel catalog on boot")
	traceCap := flag.Int("trace-capacity", 0, "finished request traces retained for /debug/requests (0 = 256)")
	traceSample := flag.Int("trace-sample", 0, "keep 1 in N healthy fast request traces (0 = 16; errors, sheds, timeouts and the slow tail are always kept)")
	noTraces := flag.Bool("no-request-traces", false, "disable per-request span collection and the /debug/requests store (trace IDs, metrics and access log remain)")
	verbose := flag.Bool("v", false, "debug logging")
	cli.SetUsage("eatssd", "serve tile selection over HTTP with caching, coalescing and load-shedding",
		"eatssd                       # listen on 127.0.0.1:7474",
		"eatssd -addr :8080 -warm     # pre-analyze the catalog on boot",
		`curl -s localhost:7474/v1/solve -d '{"kernel":"gemm"}'`)
	flag.Parse()
	if *verbose {
		cli.Verbose()
	}

	// Metrics. Spans are recorded only under a request's trace, bounded
	// per trace and tail-sampled into the /debug/requests store, so the
	// daemon's memory stays flat.
	obs.EnableMetrics()
	trace.Default.Configure(*traceCap, *traceSample)

	s := serve.New(serve.Config{
		MaxInflight:        *inflight,
		MaxQueue:           *queue,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		ProgramCacheSize:   *programs,
		SelectionCacheSize: *selections,
		AccessLog:          cli.Logger,
		DisableTracing:     *noTraces,
	})
	if *warm {
		n := s.Warm(context.Background())
		cli.Logger.Info("catalog warmed", "tool", "eatssd", "programs", n)
	}

	srv, err := s.Start(*addr)
	if err != nil {
		cli.Fatal(err)
	}
	cli.Logger.Info("eatssd listening", "addr", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	cli.Logger.Info("shutting down", "signal", got.String())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		cli.Logger.Warn("graceful shutdown incomplete, closing", "err", err)
		srv.Close()
	}
}
