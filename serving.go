package compactroute

import (
	"compactroute/internal/serve"
)

// Serving re-exports of internal/serve, the subsystem behind
// cmd/routeserve and the batched evaluation harness (the engine itself is
// LiveEngine, see live.go).
type (
	// ServeStats is a merged snapshot of an engine's serving counters: QPS,
	// hop quantiles, stretch histogram and bound violations.
	ServeStats = serve.Stats
	// RouteAuditor shadow-verifies a deterministic sample of delivered
	// queries off the hot path through the bounded bidirectional kernel,
	// publishing compactroute_audit_* instruments. Attach one per engine via
	// LiveServeOptions.Audit.
	RouteAuditor = serve.Auditor
	// RouteAuditStats is a snapshot of an auditor's counters.
	RouteAuditStats = serve.AuditStats
)

// Histogram geometry of the serving statistics, re-exported for clients
// that render ServeStats/LiveStats stretch histograms.
const (
	StretchBuckets     = serve.StretchBuckets
	StretchBucketWidth = serve.StretchBucketWidth
)

// NewRouteAuditor builds an auditor sampling the given rate (0..1) of
// delivered queries into a buffer of bufN records, shadow-verified by the
// given number of background workers. Hand it to exactly one engine via its
// options (the engine starts the workers); Flush before reading exact
// totals; Close when the engine is done.
func NewRouteAuditor(rate float64, workers, bufN int) *RouteAuditor {
	return serve.NewAuditor(rate, workers, bufN)
}
