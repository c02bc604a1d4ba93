package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/obs"
	"compactroute/internal/parallel"
	"compactroute/internal/simnet"
)

// BuildFunc preprocesses a routing scheme for a (churned) graph; the live
// engine calls it from the background rebuild goroutine. It must be a pure
// function of the graph - same graph, same scheme - for a rebuilt
// generation to be bit-identical to a from-scratch build, and its internal
// parallelism (every scheme constructor in this repository runs on the
// internal/parallel pool) is what makes rebuilds fast.
type BuildFunc func(g *graph.Graph) (simnet.Scheme, error)

// RepairInfo reports the dirty-set footprint of one incremental repair -
// how much of the scheme the churn actually invalidated.
type RepairInfo struct {
	Edges         int // edge updates covered by the repair
	DirtyVics     int // vicinities recomputed
	ChangedVics   int // recomputed vicinities that actually differed
	DirtyClusters int // cluster trees recomputed
	DirtySeqs     int // inter-routing sequences rebuilt
	DirtyLabels   int // labels recomputed
	// PatchedRows counts the shortest-path rows the repair's cache carried
	// over from the last generation by patching them, and RowSearches the
	// rows computed into that cache by full single-source searches
	// (graph.LazyStats.Misses): together they say whether a slow repair
	// refilled rows instead of carrying them.
	PatchedRows int
	RowSearches int
}

// RepairFunc incrementally repairs a scheme for the effective graph g (the
// materialization of old's graph plus the overlay entries). The returned
// scheme must be preprocessed for exactly g and bit-identical to what
// LiveOptions.Build would produce on g; an error means the repair path
// cannot guarantee that (the engine escalates to a full rebuild).
type RepairFunc func(old simnet.Scheme, g *graph.Graph, entries []live.Entry) (simnet.Scheme, RepairInfo, error)

// ErrRebuildInFlight is returned by Rebuild while a rebuild is running.
var ErrRebuildInFlight = errors.New("serve: a rebuild is already in flight")

// generation is one immutable (scheme, router) pair; the engine swaps whole
// generations with an atomic pointer flip, so a query observes exactly one.
//
// Each generation is reference-counted: one owner reference held by the
// engine's gen pointer plus one per in-flight query. The swap releases the
// owner reference; when the count drains to zero the retire hook (if any)
// runs exactly once - the deterministic munmap-after-drain point for
// generations whose scheme aliases an mmap'd snapshot.
type generation struct {
	id     uint64
	router *live.Router
	refs   atomic.Int64
	retire func()
	// pkts recycles the scratch packets of single-query Route calls on this
	// generation (see worker.pktGen for why packets never cross one).
	pkts sync.Pool
}

// tryAcquire takes a query reference unless the generation has already
// drained (refs hit zero), in which case the caller must reload the current
// generation pointer - the zero check is what makes load-then-increment safe
// against a concurrent swap + drain + retire.
func (g *generation) tryAcquire() bool {
	for {
		r := g.refs.Load()
		if r == 0 {
			return false
		}
		if g.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release drops one reference and fires the retire hook on the last one.
func (g *generation) release() {
	if g.refs.Add(-1) == 0 && g.retire != nil {
		g.retire()
	}
}

// Live serves route queries for a preprocessed scheme while the graph
// churns underneath it: an RCU-style generation manager over
// overlay-patched routing.
//
// Queries are served from the current generation through a live.Router
// (scheme decisions patched against the shared edge-delta overlay);
// ApplyUpdates mutates the overlay; Rebuild materializes base+overlay,
// preprocesses a fresh scheme for it in the background, and hot-swaps the
// generation with an atomic pointer flip. No query ever blocks on a
// rebuild, and the statistics are owned by the engine - not a generation -
// so nothing is lost across a swap.
type Live struct {
	*core
	rr    atomic.Uint64
	start atomic.Int64

	// The lifecycle counters are obs instruments (atomic underneath) so a
	// registry can export them directly; they work unregistered exactly the
	// same when no registry is configured.
	rebuilding  atomic.Bool
	rebuilds    obs.Counter
	rebuildErrs obs.Counter
	swaps       obs.Counter
	lastRebuild atomic.Int64 // nanoseconds of the last successful rebuild

	repairs        obs.Counter
	repairErrs     obs.Counter
	escalations    obs.Counter   // Refresh tried a repair, it failed, rebuild ran
	pendingDropped obs.Counter   // quiesced updates rejected at drain
	lastRepair     atomic.Int64  // nanoseconds of the last successful repair
	treesAtReset   atomic.Uint64 // overlay fallback trees at the last ResetStats
	lastInfoMu     sync.Mutex
	lastInfo       RepairInfo

	// obsCnt/obsStats/obsInfo are the merged snapshot behind the registry's
	// func-backed instruments (refreshed by the collect hook and read under
	// the registry lock; see registerObs).
	obsCnt   counters
	obsStats Stats
	obsInfo  RepairInfo

	// pendMu orders updates against the swap+rebase critical window: while
	// quiescing (a rebuild or repair is between reading the overlay and
	// rebasing it), ApplyUpdates parks updates in pending instead of
	// mutating the overlay. Without it an update that restores an edge to
	// its *old*-base state is normalized away by the overlay (no entry) and
	// then silently lost when the overlay is rebased onto the new graph -
	// the new base still carries the churned weight the update undid.
	pendMu    sync.Mutex
	quiescing bool
	pending   []live.Update
}

// NewLive builds an engine serving s over a fresh (empty) overlay and starts
// one worker goroutine per shard. Callers that create engines in a loop
// should Close them; an engine dropped without Close releases its workers
// when the garbage collector collects it.
func NewLive(s simnet.Scheme, o LiveOptions) (*Live, error) {
	return NewLiveWithOverlay(s, live.NewOverlay(s.Graph()), o)
}

// NewLiveWithOverlay builds a live engine over an existing overlay - the
// restore path for snapshots that carry an overlay journal. The overlay
// must be anchored on the scheme's graph.
func NewLiveWithOverlay(s simnet.Scheme, ov *live.Overlay, o LiveOptions) (*Live, error) {
	if ov.Base() != s.Graph() {
		return nil, fmt.Errorf("serve: overlay is not anchored on the scheme's graph")
	}
	if o.Workers <= 0 {
		o.Workers = parallel.Workers()
	}
	router, err := live.NewRouter(s, ov)
	if err != nil {
		return nil, err
	}
	c := &core{opts: o, ov: ov, shards: make([]*shard, o.Workers),
		cl: &closer{quit: make(chan struct{})}}
	gen0 := &generation{id: 0, router: router, retire: c.retireHook(0, o.Retire)}
	gen0.refs.Store(1) // owner reference, released by the first swap
	c.gen.Store(gen0)
	for i := range c.shards {
		c.shards[i] = &shard{jobs: make(chan batchJob, 8)}
		go (&worker{c: c, sh: c.shards[i]}).loop()
	}
	l := &Live{core: c}
	l.start.Store(time.Now().UnixNano())
	if o.Obs != nil {
		l.registerObs(o.Obs)
	}
	if o.Audit != nil {
		o.Audit.start(c.auditBackend())
	}
	// Safety net for engines dropped without Close: the workers reference
	// only the core, never the handle, so the handle becomes unreachable
	// while they are parked and the cleanup can stop them.
	runtime.AddCleanup(l, func(cl *closer) { cl.close() }, c.cl)
	return l, nil
}

// retireHook chains a generation's retire callback with the flight-recorder
// retire event, so the recorder captures the munmap-after-drain point of
// every displaced generation.
func (c *core) retireHook(id uint64, retire func()) func() {
	fr := c.opts.FlightRec
	if fr == nil {
		return retire
	}
	return func() {
		if retire != nil {
			retire()
		}
		fr.Record(obs.FlightEvent{Kind: "retire", Gen: id, Detail: "generation drained and retired"})
	}
}

// auditBackend is the live engine's shadow-verification: records are only
// charged as violations when the route was provably clean AND the world has
// not moved since - same generation, same overlay version, re-checked after
// the bounded bidirectional search. Everything else is churn-attributed
// (audit_stale), mirroring the hot path's staleness accounting so a
// violation is never double-counted across the two classifications.
func (c *core) auditBackend() auditBackend {
	return auditBackend{
		fr: c.opts.FlightRec,
		check: func(rec auditRecord) auditVerdict {
			if !rec.clean {
				return auditVerdict{kind: auditStale}
			}
			gen := c.gen.Load()
			if gen.id != rec.gen || !gen.tryAcquire() {
				return auditVerdict{kind: auditStale}
			}
			defer gen.release()
			if c.ov.Version() != rec.version {
				return auditVerdict{kind: auditStale}
			}
			// Clean + version unchanged means the overlay is still empty, so
			// the effective graph IS the generation's base graph and the
			// proved bound applies.
			d := c.ov.BoundedBidiDist(graph.Vertex(rec.src), graph.Vertex(rec.dst), rec.weight)
			if c.ov.Version() != rec.version || c.gen.Load() != gen {
				return auditVerdict{kind: auditStale} // churn raced the audit search
			}
			v := auditVerdict{kind: auditVerified, dist: d, bound: gen.router.Scheme().StretchBound(d)}
			if rec.weight > v.bound+1e-9 {
				v.kind = auditViolation
			}
			return v
		},
		describe: func(rec auditRecord, v auditVerdict) obs.FlightEvent {
			ev := obs.FlightEvent{
				Kind:   "audit_violation",
				Detail: fmt.Sprintf("routed weight %g exceeds proved bound %g (dist %g)", rec.weight, v.bound, v.dist),
				Src:    rec.src, Dst: rec.dst, Gen: rec.gen,
				Weight: rec.weight, Dist: v.dist, Bound: v.bound,
			}
			gen := c.gen.Load()
			if gen.id != rec.gen || !gen.tryAcquire() {
				ev.Detail += "; generation moved before the route could be re-traced"
				return ev
			}
			defer gen.release()
			tr := &obs.Trace{ID: rec.id, Src: rec.src, Dst: rec.dst}
			res, _ := gen.router.RouteInto(nil, graph.Vertex(rec.src), graph.Vertex(rec.dst), tr)
			tr.Hops = res.Hops
			tr.Err = res.Err != nil
			tr.Stale = res.Stale()
			ev.Trace = tr
			return ev
		},
	}
}

// Scheme returns the scheme of the current generation.
func (l *Live) Scheme() simnet.Scheme { return l.gen.Load().router.Scheme() }

// Generation returns the id of the current generation (0 until the first
// swap).
func (l *Live) Generation() uint64 { return l.gen.Load().id }

// Overlay returns the shared edge-delta overlay (snapshot journals and the
// admin protocol read it).
func (l *Live) Overlay() *live.Overlay { return l.ov }

// ApplyUpdates applies edge updates in order. On the first invalid update
// it stops and returns the error; earlier updates stay applied (each update
// is atomic, the batch is not). While a rebuild or repair is inside its
// swap window the batch is queued instead and drained - in arrival order -
// right after the overlay is rebased onto the new generation's graph;
// updates that fail at drain time are counted in LiveStats.PendingDropped.
func (l *Live) ApplyUpdates(ups []live.Update) error {
	if fr := l.opts.FlightRec; fr != nil {
		for _, up := range ups {
			fr.Record(obs.FlightEvent{
				Kind:   "edge_update",
				Detail: fmt.Sprintf("%s {%d,%d} w=%g", up.Op, up.U, up.V, up.W),
				Src:    int32(up.U), Dst: int32(up.V), Gen: l.Generation(),
				Weight: up.W,
			})
		}
	}
	l.pendMu.Lock()
	defer l.pendMu.Unlock()
	if l.quiescing {
		l.pending = append(l.pending, ups...)
		return nil
	}
	for i, up := range ups {
		if err := l.ov.Apply(up); err != nil {
			return fmt.Errorf("serve: update %d: %w", i, err)
		}
	}
	return nil
}

// beginQuiesce opens the swap window: subsequent ApplyUpdates batches park
// in pending until endQuiesce.
func (l *Live) beginQuiesce() {
	l.pendMu.Lock()
	l.quiescing = true
	l.pendMu.Unlock()
}

// endQuiesce closes the swap window and drains the parked updates against
// the (now possibly rebased) overlay.
func (l *Live) endQuiesce() {
	l.pendMu.Lock()
	defer l.pendMu.Unlock()
	for _, up := range l.pending {
		if err := l.ov.Apply(up); err != nil {
			l.pendingDropped.Inc()
		}
	}
	l.pending = nil
	l.quiescing = false
}

// Rebuild materializes the effective graph, preprocesses a fresh scheme for
// it with LiveOptions.Build, and hot-swaps the serving generation. It runs
// in the calling goroutine (use RebuildAsync for fire-and-forget) but never
// blocks queries: serving continues on the old generation until one atomic
// pointer flip. Returns ErrRebuildInFlight if a rebuild is already running.
func (l *Live) Rebuild() error {
	if l.opts.Build == nil {
		return errors.New("serve: live engine has no Build function")
	}
	if !l.rebuilding.CompareAndSwap(false, true) {
		return ErrRebuildInFlight
	}
	defer l.rebuilding.Store(false)
	start := time.Now()
	// Quiesce updates from the overlay read until after the rebase: an
	// update landing in between could be normalized against the old base
	// and lost by the rebase (see pendMu). The drain runs in the deferred
	// endQuiesce, after the rebase (or on the error paths, against the
	// untouched overlay).
	l.beginQuiesce()
	defer l.endQuiesce()
	g, err := l.ov.Materialize()
	if err != nil {
		l.rebuildErrs.Inc()
		return fmt.Errorf("serve: materialize effective graph: %w", err)
	}
	s, err := l.opts.Build(g)
	if err != nil {
		l.rebuildErrs.Inc()
		return fmt.Errorf("serve: rebuild scheme: %w", err)
	}
	if err := l.swapTo(s, g); err != nil {
		l.rebuildErrs.Inc()
		return err
	}
	l.rebuilds.Inc()
	l.lastRebuild.Store(int64(time.Since(start)))
	if fr := l.opts.FlightRec; fr != nil {
		fr.Record(obs.FlightEvent{
			Kind:   "rebuild",
			Detail: fmt.Sprintf("full rebuild in %s", time.Since(start).Round(time.Microsecond)),
			Gen:    l.Generation(),
		})
	}
	return nil
}

// swapTo installs a scheme preprocessed for the effective graph g as the
// next serving generation. Callers hold the rebuilding gate and the quiesce
// window.
func (l *Live) swapTo(s simnet.Scheme, g *graph.Graph) error {
	if s.Graph().N() != g.N() || s.Graph().Fingerprint() != g.Fingerprint() {
		return errors.New("serve: scheme preprocessed for a different graph than the effective one")
	}
	router, err := live.NewRouter(s, l.ov)
	if err != nil {
		return err
	}
	// The swap: flip the generation pointer first, then rebase the overlay
	// onto the scheme's own graph (pruning every entry the new base
	// already agrees with). Order matters: until the rebase, the overlay
	// still holds the absolute states both generations patch against; once
	// pruned, an in-flight query that pinned the *old* generation may
	// route a one-swap-stale walk (old base weights, possibly crossing a
	// just-removed edge) - bounded RCU staleness that route's clean
	// check (generation re-read after routing) keeps out of the
	// bound-verified statistics.
	old := l.gen.Load()
	next := &generation{id: old.id + 1, router: router, retire: l.retireHook(old.id+1, nil)}
	next.refs.Store(1)
	l.gen.Store(next)
	// Drop the owner reference of the displaced generation; its retire hook
	// (munmap for mapped snapshots) fires once the last in-flight query on
	// it returns.
	old.release()
	if err := l.ov.Rebase(s.Graph()); err != nil {
		return err
	}
	l.swaps.Inc()
	if fr := l.opts.FlightRec; fr != nil {
		fr.Record(obs.FlightEvent{
			Kind:   "swap",
			Detail: fmt.Sprintf("generation %d -> %d hot-swapped", old.id, next.id),
			Gen:    next.id,
		})
	}
	return nil
}

// Repair incrementally repairs the serving scheme for the current effective
// graph with LiveOptions.Repair and hot-swaps the generation exactly like
// Rebuild (same in-flight gate, same RCU swap, same quiesce window). On any
// repair error the scheme keeps serving unchanged and the caller decides
// whether to escalate (Refresh does so automatically).
func (l *Live) Repair() error {
	if l.opts.Repair == nil {
		return errors.New("serve: live engine has no Repair function")
	}
	if !l.rebuilding.CompareAndSwap(false, true) {
		return ErrRebuildInFlight
	}
	defer l.rebuilding.Store(false)
	start := time.Now()
	l.beginQuiesce()
	defer l.endQuiesce()
	entries := l.ov.Entries()
	g, err := l.ov.Materialize()
	if err != nil {
		l.repairErrs.Inc()
		return fmt.Errorf("serve: materialize effective graph: %w", err)
	}
	s, info, err := l.opts.Repair(l.gen.Load().router.Scheme(), g, entries)
	if err != nil {
		l.repairErrs.Inc()
		return fmt.Errorf("serve: repair scheme: %w", err)
	}
	if err := l.swapTo(s, g); err != nil {
		l.repairErrs.Inc()
		return err
	}
	l.repairs.Inc()
	l.lastRepair.Store(int64(time.Since(start)))
	l.lastInfoMu.Lock()
	l.lastInfo = info
	l.lastInfoMu.Unlock()
	if fr := l.opts.FlightRec; fr != nil {
		fr.Record(obs.FlightEvent{
			Kind: "repair",
			Detail: fmt.Sprintf("incremental repair in %s (%d edges, %d vics, %d clusters, %d seqs, %d labels, %d patched rows, %d row searches)",
				time.Since(start).Round(time.Microsecond), info.Edges, info.DirtyVics, info.DirtyClusters, info.DirtySeqs, info.DirtyLabels,
				info.PatchedRows, info.RowSearches),
			Gen: l.Generation(),
		})
	}
	return nil
}

// Refresh folds the current overlay into a fresh serving generation the
// cheapest safe way: an incremental repair whenever LiveOptions.Repair is
// set, whatever the overlay size - the repair itself refuses a batch a
// from-scratch build would answer differently - and a full rebuild when
// there is no repair function or the repair fails (counted as an
// escalation). It is the call sites' one-stop "absorb the churn" entry.
func (l *Live) Refresh() error {
	if l.opts.Repair != nil {
		err := l.Repair()
		if err == nil || errors.Is(err, ErrRebuildInFlight) {
			return err
		}
		l.escalations.Inc()
		if fr := l.opts.FlightRec; fr != nil {
			fr.Record(obs.FlightEvent{
				Kind:   "escalation",
				Detail: fmt.Sprintf("repair failed, escalating to full rebuild: %v", err),
				Gen:    l.Generation(),
			})
		}
	}
	return l.Rebuild()
}

// RebuildAsync starts Rebuild in a background goroutine and returns a
// channel that receives its result (buffered; the goroutine never leaks).
func (l *Live) RebuildAsync() <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- l.Rebuild() }()
	return ch
}

// Rebuilding reports whether a rebuild is currently in flight.
func (l *Live) Rebuilding() bool { return l.rebuilding.Load() }

// LiveStats extends the serving statistics with the churn-specific
// counters. BoundViolations counts only clean deliveries (degraded
// deliveries land in the staleness fields instead).
type LiveStats struct {
	Stats
	Generation     uint64
	OverlayVersion uint64
	Overlay        live.Breakdown
	DeadEdgeHits   uint64
	// Detours is always 0.
	//
	// Deprecated: the bounded local detour around a dead edge is gone; every
	// dead edge hit now ends in one fallback. The field stays so readers of
	// earlier statistics keep compiling.
	Detours   uint64
	Fallbacks uint64
	// StaleServed counts deliveries answered degraded: completed by the
	// fallback, over a non-empty overlay, or racing an update or swap.
	StaleServed uint64
	// MaxStaleStretch / StaleHist measure routed weight over the true
	// effective distance for degraded deliveries (Verify only) - the
	// "measured staleness stretch" that replaces the proved bound while the
	// scheme is stale.
	MaxStaleStretch float64
	StaleHist       [StretchBuckets + 1]uint64
	Rebuilds        uint64
	RebuildErrors   uint64
	Swaps           uint64
	LastRebuild     time.Duration
	Rebuilding      bool
	// Repair-path counters: successful incremental repairs, repair attempts
	// that errored, Refresh calls that fell back from repair to a full
	// rebuild, quiesced updates rejected at drain time, the duration of the
	// last successful repair, and its dirty-set footprint.
	Repairs        uint64
	RepairErrors   uint64
	Escalations    uint64
	PendingDropped uint64
	LastRepair     time.Duration
	LastRepairInfo RepairInfo
}

// Stats merges the shard counters into one snapshot.
func (l *Live) Stats() LiveStats {
	m := l.merged()
	st := LiveStats{
		Stats:           m.finalize(l.start.Load()),
		Generation:      l.Generation(),
		OverlayVersion:  l.ov.Version(),
		Overlay:         l.ov.Breakdown(),
		DeadEdgeHits:    m.deadHits,
		Fallbacks:       m.fallbacks,
		StaleServed:     m.stale,
		MaxStaleStretch: m.maxStale,
		StaleHist:       m.staleHist,
		Rebuilds:        l.rebuilds.Value(),
		RebuildErrors:   l.rebuildErrs.Value(),
		Swaps:           l.swaps.Value(),
		LastRebuild:     time.Duration(l.lastRebuild.Load()),
		Rebuilding:      l.rebuilding.Load(),
		Repairs:         l.repairs.Value(),
		RepairErrors:    l.repairErrs.Value(),
		Escalations:     l.escalations.Value(),
		PendingDropped:  l.pendingDropped.Value(),
		LastRepair:      time.Duration(l.lastRepair.Load()),
	}
	l.lastInfoMu.Lock()
	st.LastRepairInfo = l.lastInfo
	l.lastInfoMu.Unlock()
	return st
}
