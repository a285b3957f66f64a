package obs

import (
	"io"
	"log/slog"
)

// NewJSONLogger returns a structured logger writing one JSON object per
// line to w — the service's request/job log and the CLI's -watch cycle
// log share this constructor so every long-running mode of the tool
// speaks the same log dialect (time, level, msg, then typed attrs such
// as traceId, tenant, route, status, durationMs).
func NewJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}
