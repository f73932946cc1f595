// Package cli is the shared plumbing of the repro commands: consistent
// usage text, structured logging, fatal-error handling with
// flight-recorder dumps, and the -listen live-introspection server.
// Every cmd/* main wires through it so diagnostics behave identically
// across tools (errors on stderr, non-zero exits, flag.Usage naming
// every flag).
package cli

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/serve"
)

// tool is the command name used to prefix diagnostics; set by SetUsage.
var tool = "eatss"

// Logger is the shared structured logger: text records on stderr,
// tagged with the active obs span and mirrored into the flight
// recorder. Level defaults to Info; Verbose lowers it to Debug.
var Logger = obs.NewLogger(os.Stderr, logLevel)

var logLevel = new(slog.LevelVar)

// Verbose switches the shared logger to Debug level.
func Verbose() { logLevel.Set(slog.LevelDebug) }

// SetUsage names the tool and installs a flag.Usage that prints the
// summary, the examples, and every registered flag with its default.
// Call it after defining flags and before flag.Parse.
func SetUsage(name, summary string, examples ...string) {
	tool = name
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "%s — %s\n\nusage: %s [flags]\n", name, summary, name)
		if len(examples) > 0 {
			fmt.Fprintf(w, "\nexamples:\n")
			for _, ex := range examples {
				fmt.Fprintf(w, "  %s\n", ex)
			}
		}
		fmt.Fprintf(w, "\nflags:\n")
		flag.PrintDefaults()
	}
}

// Fatal reports err on stderr through the shared logger and exits 1.
// When the flight recorder is capturing, its ring is dumped to
// <tool>-flight.json first, so the events leading up to the failure
// survive the exit.
func Fatal(err error) {
	Logger.Error(err.Error(), "tool", tool)
	dumpFlight("error")
	os.Exit(1)
}

// ListenFlag registers the shared -listen flag and returns its value
// pointer. Pass the result to Serve after flag.Parse.
func ListenFlag() *string {
	return flag.String("listen", "",
		"serve live introspection on this address (e.g. 127.0.0.1:8080 or :0): /metrics /progress /flight /profile /debug/requests /debug/pprof")
}

// Serve enables the observability layer (metrics and live progress;
// spans only under a trace, so a long run's memory stays flat) and the
// flight recorder, and starts the introspection HTTP server when addr
// is non-empty. It also installs a SIGINT/SIGTERM handler that dumps
// the flight recorder before the process dies, so interrupted long runs
// leave evidence.
// The returned stop function closes the server (nil-safe to call when
// addr was empty).
func Serve(addr string) (stop func()) {
	if addr == "" {
		return func() {}
	}
	obs.EnableMetrics()
	flight.Default.Enable()
	srv, err := serve.Start(addr)
	if err != nil {
		Fatal(err)
	}
	Logger.Info("introspection server listening", "tool", tool, "addr", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		Logger.Warn("interrupted, dumping flight recorder", "tool", tool, "signal", s.String())
		dumpFlight(s.String())
		shutdown(srv)
		os.Exit(130)
	}()

	return func() {
		signal.Stop(sig)
		close(sig)
		shutdown(srv)
	}
}

// shutdown drains the introspection server gracefully — an in-flight
// /metrics scrape or /flight download finishes — and falls back to an
// immediate Close when the drain does not complete in time.
func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}

// dumpFlight writes the flight-recorder ring to <tool>-flight.json when
// the recorder is capturing. Best-effort: dump failures are reported
// but never mask the original error path.
func dumpFlight(reason string) {
	if !flight.Default.Enabled() || flight.Default.Len() == 0 {
		return
	}
	path := tool + "-flight.json"
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", tool, err)
		return
	}
	defer f.Close()
	if err := flight.Default.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "%s: flight dump: %v\n", tool, err)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: flight recorder dumped to %s (%s)\n", tool, path, reason)
}
