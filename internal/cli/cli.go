// Package cli is the shared plumbing of the repro commands: consistent
// usage text, structured logging, fatal-error handling, and the -listen
// live-introspection server.
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
	"time"

	"repro/internal/obs"
	"repro/internal/obs/serve"
)

// tool is the command name used to prefix diagnostics; set by SetUsage.
var tool = "eatss"

// Logger is the shared structured logger: text records on stderr,
// tagged with the active obs span. Level defaults to Info; Verbose
// lowers it to Debug.
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
func Fatal(err error) {
	Logger.Error(err.Error(), "tool", tool)
	os.Exit(1)
}

// Usagef reports a bad flag value or flag combination on stderr and
// exits 2, as flag.Parse does for a malformed flag.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(2)
}

// ListenFlag registers the shared -listen flag and returns its value
// pointer. Pass the result to Serve after flag.Parse.
func ListenFlag() *string {
	return flag.String("listen", "",
		"serve live introspection on this address (e.g. 127.0.0.1:8080 or :0): /metrics /progress /profile /debug/requests /debug/pprof")
}

// Serve enables the observability layer (metrics and live progress;
// spans only under a trace, so a long run's memory stays flat) and
// starts the introspection HTTP server when addr is non-empty. The
// returned stop function closes the server (a no-op when addr was
// empty).
func Serve(addr string) (stop func()) {
	if addr == "" {
		return func() {}
	}
	obs.EnableMetrics()
	srv, err := serve.Start(addr)
	if err != nil {
		Fatal(err)
	}
	Logger.Info("introspection server listening", "tool", tool, "addr", srv.Addr())
	return func() { shutdown(srv) }
}

// shutdown drains the introspection server gracefully — an in-flight
// /metrics scrape or profile download finishes — and falls back to an
// immediate Close when the drain does not complete in time.
func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}
