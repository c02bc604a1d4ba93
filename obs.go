package compactroute

import (
	"compactroute/internal/obs"
	"compactroute/internal/wire"
)

// Observability re-exports: the process-wide metrics registry and sampled
// route tracing of internal/obs, the layer cmd/routeserve's admin/metrics
// surface is built on. Instruments are allocation-free on the hot path;
// tracing selects queries by a deterministic hash of (src, dst) so the
// sampled set is identical across runs and worker counts.
type (
	// MetricsRegistry holds registered instruments and renders them in
	// Prometheus text format and JSON; LiveServeOptions.Obs attaches an
	// engine's statistics to one.
	MetricsRegistry = obs.Registry
	// TraceSink samples per-query route traces and keeps a ring of the most
	// recent completed ones; LiveServeOptions.Trace threads it through the
	// routing hot path.
	TraceSink = obs.TraceSink
	// RouteTrace is one sampled query's decision chain.
	RouteTrace = obs.Trace
	// RoutePhase classifies one routing decision (vicinity hit, landmark
	// sequence, tree descent, overlay detour, exact fallback, ...).
	RoutePhase = obs.Phase
	// SnapshotLoadEvent describes one completed snapshot load (bytes,
	// mapped or not, and where the time went).
	SnapshotLoadEvent = wire.LoadEvent
	// FlightRecorder is the serving black box: a fixed ring of recent
	// notable events (audited violations with route + trace, edge updates,
	// rebuild/repair/swap transitions, generation retires), served at
	// /debug/flightrec and auto-dumped to a JSON file on the first trip.
	// Attach via LiveServeOptions.FlightRec.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one recorded flight-recorder event.
	FlightEvent = obs.FlightEvent
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RoutePhaseNames returns the routing-decision vocabulary in enum order;
// index i names RoutePhase(i). Useful for rendering a per-phase decision
// census from TraceSink.DecisionCount.
func RoutePhaseNames() []string { return obs.PhaseNames() }

// NewTraceSink builds a trace sink sampling the given rate (0..1) of
// queries and keeping the most recent bufN completed traces. Register it on
// a MetricsRegistry to expose the sampled-trace and per-decision counters.
func NewTraceSink(rate float64, bufN int) *TraceSink { return obs.NewTraceSink(rate, bufN) }

// SetSnapshotLoadObserver installs fn as the process-wide observer of
// snapshot loads (nil removes it). LoadScheme/OpenSchemeFile and every path
// built on them (LoadSchemeFile, OpenLiveStateFile) report through it.
func SetSnapshotLoadObserver(fn func(SnapshotLoadEvent)) { wire.SetLoadObserver(fn) }

// NewFlightRecorder builds a flight recorder keeping the most recent n
// events. Arm it with a file path to auto-dump the ring on the first tripped
// anomaly, and Register it on a MetricsRegistry for the event counters.
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }
