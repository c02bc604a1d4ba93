package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"compactroute/internal/graph"
	"compactroute/internal/obs"
)

// The online route auditor: continuous, sampled, asynchronous shadow
// verification of served routes. The hot path offers every delivered query
// to the auditor for the price of one hash and one compare (the same
// deterministic splitmix64 selection the trace sink uses, so an audited
// query at rate R is exactly a traced query at rate R and audited anomalies
// always have their trace); selected records flow through a bounded,
// drop-counting channel to a background worker pool that proves the true
// distance with the bounded bidirectional kernel - no PathSource, no row
// cache - and checks the routed weight against the scheme's proved stretch
// bound. This turns the paper's stretch theorem from a loadgen-only
// assertion into a continuously measured production SLO.

// auditDriftWindow is the sliding window (audited deliveries) behind the
// drift gauge: the windowed mean of observed stretch.
const auditDriftWindow = 256

// auditRecord is one sampled query offered to the auditor. gen/version/clean
// capture the serving generation state at route time; the live backend
// re-validates them at audit time so a violation is never charged to a
// route served during churn (those count as stale-attributed instead).
type auditRecord struct {
	id       uint64 // obs.QueryID(src, dst)
	src, dst int32
	weight   float64
	gen      uint64
	version  uint64
	clean    bool
	t0       int64 // enqueue time, unix nanos
}

type auditKind uint8

const (
	auditVerified auditKind = iota
	auditViolation
	auditStale
)

// auditVerdict is the outcome of shadow-verifying one record.
type auditVerdict struct {
	kind  auditKind
	dist  float64
	bound float64
}

// auditBackend couples an engine's verification function with its anomaly
// describer. check proves (or churn-attributes) one record; describe builds
// the flight-recorder event for a confirmed violation, re-routing the query
// off the hot path to capture the offending route and its decision trace.
type auditBackend struct {
	check    func(rec auditRecord) auditVerdict
	describe func(rec auditRecord, v auditVerdict) obs.FlightEvent
	fr       *obs.FlightRecorder
}

// Auditor is the background shadow-verification pool. Build one with
// NewAuditor, hand it to an engine via LiveOptions.Audit (the engine starts
// the workers against its own verification backend), and Close it when the
// engine is done. One auditor serves exactly one engine.
type Auditor struct {
	thresh  uint64
	workers int
	ch      chan auditRecord
	quit    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	stop    sync.Once
	backend auditBackend

	inflight atomic.Int64 // enqueued but not yet fully processed
	idXor    atomic.Uint64

	sampled    *obs.Counter
	dropped    *obs.Counter
	verified   *obs.Counter
	violations *obs.Counter
	stale      *obs.Counter
	lag        *obs.Gauge

	mu          sync.Mutex
	minHeadroom float64 // +Inf until the first audited delivery
	window      [auditDriftWindow]float64
	wpos, wn    int
	windowSum   float64
	driftThresh float64
	breached    bool
}

// NewAuditor builds an auditor sampling the given rate (0..1) of delivered
// queries into a buffer of bufN records (the backlog cap; excess records are
// dropped and counted, never blocking the hot path), verified by the given
// number of background workers.
func NewAuditor(rate float64, workers, bufN int) *Auditor {
	if workers <= 0 {
		workers = 1
	}
	if bufN <= 0 {
		bufN = 4096
	}
	return &Auditor{
		thresh:      obs.SampleThresh(rate),
		workers:     workers,
		ch:          make(chan auditRecord, bufN),
		quit:        make(chan struct{}),
		minHeadroom: graph.Infinity,
		sampled:     &obs.Counter{},
		dropped:     &obs.Counter{},
		verified:    &obs.Counter{},
		violations:  &obs.Counter{},
		stale:       &obs.Counter{},
		lag:         &obs.Gauge{},
	}
}

// SetDriftThreshold arms the drift trip: once the windowed mean observed
// stretch exceeds t (with a full window), the flight recorder trips an
// audit_drift event. 0 (the default) disables the trip; the drift gauge is
// always published.
func (a *Auditor) SetDriftThreshold(t float64) {
	a.mu.Lock()
	a.driftThresh = t
	a.mu.Unlock()
}

// start launches the worker pool against an engine's backend. Engines call
// this from their constructors; attaching one auditor to two engines is a
// programming error.
func (a *Auditor) start(b auditBackend) {
	if a.started.Swap(true) {
		panic("serve: Auditor attached to more than one engine")
	}
	a.backend = b
	for i := 0; i < a.workers; i++ {
		a.wg.Add(1)
		go a.run()
	}
}

func (a *Auditor) run() {
	defer a.wg.Done()
	for {
		select {
		case rec := <-a.ch:
			a.process(rec)
		case <-a.quit:
			// Drain records enqueued before the quit was published.
			for {
				select {
				case rec := <-a.ch:
					a.process(rec)
				default:
					return
				}
			}
		}
	}
}

// offer is the hot-path entry: a nil receiver or an unsampled id costs one
// hash (already computed by the caller) and one compare. Sampled records are
// stamped and enqueued without blocking; a full ring drops and counts.
func (a *Auditor) offer(id uint64, src, dst int32, weight float64, gen, version uint64, clean bool) {
	if a == nil || !obs.SampleHit(id, a.thresh) {
		return
	}
	a.sampled.Inc()
	rec := auditRecord{
		id: id, src: src, dst: dst, weight: weight,
		gen: gen, version: version, clean: clean,
		t0: time.Now().UnixNano(),
	}
	a.inflight.Add(1)
	select {
	case a.ch <- rec:
	default:
		a.inflight.Add(-1)
		a.dropped.Inc()
	}
}

func (a *Auditor) process(rec auditRecord) {
	v := a.backend.check(rec)
	switch v.kind {
	case auditStale:
		a.stale.Inc()
	case auditViolation:
		a.violations.Inc()
		if a.backend.fr != nil && a.backend.describe != nil {
			a.backend.fr.Trip(a.backend.describe(rec, v))
		}
		a.note(rec, v)
	default:
		a.verified.Inc()
		a.note(rec, v)
	}
	// Order-independent accumulator over audited ids: any worker count
	// processes the same deterministic sample set, so this checksum is
	// invariant - pinned by the determinism test.
	for {
		old := a.idXor.Load()
		if a.idXor.CompareAndSwap(old, old^rec.id) {
			break
		}
	}
	a.lag.Set(float64(time.Now().UnixNano()-rec.t0) / 1e9)
	a.inflight.Add(-1)
}

// note folds a completed (non-stale) audit into the headroom minimum and the
// sliding drift window.
func (a *Auditor) note(rec auditRecord, v auditVerdict) {
	var headroom, stretch float64
	if rec.weight > 0 {
		headroom = v.bound / rec.weight
	}
	if v.dist > 0 {
		stretch = rec.weight / v.dist
	} else {
		stretch = 1
	}
	a.mu.Lock()
	if rec.weight > 0 && headroom < a.minHeadroom {
		a.minHeadroom = headroom
	}
	if a.wn == auditDriftWindow {
		a.windowSum -= a.window[a.wpos]
	} else {
		a.wn++
	}
	a.window[a.wpos] = stretch
	a.windowSum += stretch
	a.wpos = (a.wpos + 1) % auditDriftWindow
	trip := false
	if a.driftThresh > 0 && a.wn == auditDriftWindow {
		if mean := a.windowSum / float64(a.wn); mean > a.driftThresh {
			if !a.breached {
				a.breached, trip = true, true
			}
		} else {
			a.breached = false
		}
	}
	thresh, mean := a.driftThresh, a.windowSum/float64(a.wn)
	a.mu.Unlock()
	if trip && a.backend.fr != nil {
		a.backend.fr.Trip(obs.FlightEvent{
			Kind:   "audit_drift",
			Detail: fmt.Sprintf("windowed mean stretch %.4f breached drift threshold %.4f", mean, thresh),
			Src:    rec.src, Dst: rec.dst, Gen: rec.gen,
			Weight: rec.weight, Dist: v.dist, Bound: v.bound,
		})
	}
}

// Flush blocks until every record enqueued so far has been fully processed.
// The churn census and the loadgen call this before reading counters, so
// audit totals compare exactly against the synchronous verify path.
func (a *Auditor) Flush() {
	if a == nil {
		return
	}
	for a.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// Close stops the worker pool after draining already-enqueued records. Do
// not route on the owning engine after closing its auditor.
func (a *Auditor) Close() {
	if a == nil {
		return
	}
	a.stop.Do(func() {
		close(a.quit)
		a.wg.Wait()
	})
}

// Register exposes the auditor's instruments on reg.
func (a *Auditor) Register(reg *obs.Registry) {
	reg.CounterVar(a.sampled, "compactroute_audit_sampled_total",
		"Delivered queries selected by deterministic audit sampling.")
	reg.CounterVar(a.dropped, "compactroute_audit_dropped_total",
		"Sampled audit records dropped because the audit ring was full.")
	reg.CounterVar(a.verified, "compactroute_audit_verified_total",
		"Audited deliveries whose routed weight was proved within the stretch bound.")
	reg.CounterVar(a.violations, "compactroute_audit_violations_total",
		"Audited deliveries whose routed weight exceeded the proved stretch bound - must stay zero.")
	reg.CounterVar(a.stale, "compactroute_audit_stale_total",
		"Audits attributed to churn (generation or overlay moved between route and audit); never double-counted as violations.")
	reg.GaugeVar(a.lag, "compactroute_audit_lag_seconds",
		"Route-to-audit lag of the most recently completed audit.")
	reg.GaugeFunc("compactroute_audit_backlog",
		"Sampled audit records queued but not yet verified.",
		func() float64 { return float64(len(a.ch)) })
	reg.GaugeFunc("compactroute_audit_headroom_min",
		"Minimum proved-bound / routed-weight ratio over audited deliveries (how close serving came to the bound); 0 until the first audit.",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			if a.minHeadroom == graph.Infinity {
				return 0
			}
			return a.minHeadroom
		})
	reg.GaugeFunc("compactroute_audit_drift",
		"Mean observed stretch over the sliding audit window.",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			if a.wn == 0 {
				return 0
			}
			return a.windowSum / float64(a.wn)
		})
}

// AuditStats is a snapshot of the auditor's counters.
type AuditStats struct {
	Sampled    uint64
	Dropped    uint64
	Verified   uint64
	Violations uint64
	Stale      uint64
	Backlog    int
	// MinHeadroom is the smallest proved-bound/routed-weight ratio seen
	// (0 until the first audited delivery).
	MinHeadroom float64
	// Drift is the windowed mean observed stretch.
	Drift float64
	// IDChecksum XORs every audited QueryID - order-independent, so it is
	// identical for any worker count over the same query stream.
	IDChecksum uint64
}

// Stats returns a snapshot. Call Flush first for exact totals.
func (a *Auditor) Stats() AuditStats {
	if a == nil {
		return AuditStats{}
	}
	st := AuditStats{
		Sampled:    a.sampled.Value(),
		Dropped:    a.dropped.Value(),
		Verified:   a.verified.Value(),
		Violations: a.violations.Value(),
		Stale:      a.stale.Value(),
		Backlog:    len(a.ch),
		IDChecksum: a.idXor.Load(),
	}
	a.mu.Lock()
	if a.minHeadroom != graph.Infinity {
		st.MinHeadroom = a.minHeadroom
	}
	if a.wn > 0 {
		st.Drift = a.windowSum / float64(a.wn)
	}
	a.mu.Unlock()
	return st
}
