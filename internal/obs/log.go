package obs

import (
	"context"
	"io"
	"log/slog"
)

// LogHandler is a slog.Handler wrapper that ties structured logging
// into the observability layer: records emitted under a context
// carrying an obs span gain a "span" attribute with the span's ID, so
// log lines correlate with the trace tree.
//
// The wrapper adds no cost to disabled levels: Enabled defers to the
// inner handler, and slog short-circuits before building a Record.
type LogHandler struct {
	inner slog.Handler
}

// NewLogHandler wraps inner with span tagging.
func NewLogHandler(inner slog.Handler) LogHandler { return LogHandler{inner: inner} }

// NewLogger returns a text logger writing to w at the given level, with
// span tagging — the shared diagnostic logger the cmds use in place of
// ad-hoc fmt.Fprintf.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(NewLogHandler(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})))
}

// Enabled defers to the wrapped handler.
func (h LogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle tags the record with the active span ID (if any) and forwards
// it.
func (h LogHandler) Handle(ctx context.Context, rec slog.Record) error {
	if sp := FromContext(ctx); sp != nil {
		rec.AddAttrs(slog.Uint64("span", sp.ID))
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs wraps the inner handler's WithAttrs.
func (h LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return LogHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup wraps the inner handler's WithGroup.
func (h LogHandler) WithGroup(name string) slog.Handler {
	return LogHandler{inner: h.inner.WithGroup(name)}
}
