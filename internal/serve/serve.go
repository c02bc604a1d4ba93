// Package serve is the concurrent route-serving engine: it answers
// route(u, v) queries against a preprocessed (typically snapshot-loaded)
// scheme from many workers at once, keeps serving statistics, and keeps
// answering while the graph churns underneath the scheme.
//
// One engine, Live, serves both static and churned schemes: a static scheme
// is a live one whose overlay never changes. Queries run through a
// live.Router over the current generation; while the edge-delta overlay is
// empty the router walks the scheme's own graph without taking the overlay
// lock, so a static deployment pays a couple of atomic loads per query for
// the churn machinery. ApplyUpdates mutates the overlay, and Rebuild, Repair
// and Refresh hot-swap a fresh generation with an RCU-style pointer flip.
//
// A preprocessed scheme is read-only at query time (simnet.Scheme requires
// Prepare/Next to be purely local computations over immutable tables), so
// the engine shards nothing but scratch: each shard owns a persistent worker
// goroutine with a private scratch packet and its own statistics block - the
// same own-your-slot idiom the construction pipeline (internal/parallel) and
// the search kernels (graph.Workspace pooling) use - and queries never
// contend on shared mutable state. The batched Query path routes with zero
// steady-state allocations on an empty overlay: packets are reused through
// simnet.ReusableScheme, batch bookkeeping is pooled, and stats are folded
// into the shard block in chunks instead of per query. Statistics are merged
// on demand by Stats.
//
// The evaluation harness (compactroute.EvaluateBatched) is a client of this
// engine, so offline evaluation and online serving exercise the same code
// path; cmd/routeserve drives it from a snapshot over a line/JSON protocol
// and a built-in closed-loop load generator.
package serve

import (
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/obs"
	"compactroute/internal/simnet"
)

// LiveOptions configures a serving engine.
type LiveOptions struct {
	// Workers is the number of shards (concurrent routing lanes); <= 0
	// selects the package-wide parallelism default (GOMAXPROCS, so the
	// shard count matches the core count).
	Workers int
	// PinWorkers locks every shard worker to its OS thread, pinning one
	// serving lane per core on machines where the scheduler would
	// otherwise migrate them between batches.
	PinWorkers bool
	// FailFast makes Query abandon a batch after the first routing
	// failure: remaining pairs are not routed and carry ErrAborted.
	// The batched evaluation harness uses this so a broken scheme fails
	// in one route instead of burning the hop limit on every pair.
	FailFast bool
	// Verify looks up the true distance of every delivery in the
	// *effective* (churned) graph. Deliveries served clean (empty overlay,
	// no detours, no race with churn) are checked against the scheme's
	// proved stretch bound; degraded deliveries are reported as measured
	// staleness stretch instead - the bound is not a promise the
	// preprocessed scheme ever made about a different graph.
	Verify bool
	// VerifyBidi makes Verify prove true distances with the overlay-aware
	// bounded bidirectional kernel (bound = the routed weight) instead of
	// the Distances row cache - bit-identical statistics (integer
	// weights), no row rebuilds when the overlay version moves. The row
	// cache remains the fallback for the rare raced walk whose recorded
	// weight undercuts the current effective distance.
	VerifyBidi bool
	// DetourBudget bounds the local search around one dead edge (finalized
	// vertices); <= 0 selects live.DefaultDetourBudget.
	DetourBudget int
	// MaxHops overrides the scheme-walk hop budget (0 keeps 8n+64).
	MaxHops int
	// Build rebuilds a scheme for the materialized effective graph; nil
	// disables Rebuild.
	Build BuildFunc
	// Repair incrementally repairs the serving scheme for the effective
	// graph; nil disables Repair (Refresh always rebuilds).
	Repair RepairFunc
	// Policy governs Refresh's repair-vs-rebuild decision; the zero value
	// selects DefaultRepairPolicy.
	Policy RepairPolicy
	// Retire, when non-nil, runs exactly once after the initially-supplied
	// scheme's generation has been swapped out AND every in-flight query
	// on it has drained. It is how a scheme served straight off an mmap'd
	// snapshot releases its mapping: the RCU generation refcount
	// guarantees no query can still touch the aliased tables when the hook
	// (typically munmap) fires. Rebuilt generations own ordinary heap
	// schemes and carry no hook.
	Retire func()
	// Obs, when non-nil, registers the engine's serving statistics and
	// churn/repair lifecycle on the registry as func-backed instruments
	// refreshed by a collect hook at scrape time - the sharded hot-path
	// counters stay exactly as they are.
	Obs *obs.Registry
	// Trace, when non-nil, samples per-query route traces (deterministic
	// hash-based selection; see obs.TraceSink), including the overlay's
	// detour and fallback decisions. Untraced queries pay one hash and one
	// branch; a nil Trace pays one nil check.
	Trace *obs.TraceSink
	// Audit, when non-nil, shadow-verifies a deterministic sample of
	// delivered queries off the hot path (see Auditor). Records carry the
	// generation id and overlay version observed at route time; the audit
	// re-validates both, so a violation is only ever charged to a
	// provably-clean route. One auditor serves one engine, and the caller
	// Closes it after the engine is done.
	Audit *Auditor
	// FlightRec, when non-nil, receives notable serving events: audited
	// bound violations with the offending route and its trace, edge
	// updates, rebuild/repair/swap transitions, escalations and
	// generation retires.
	FlightRec *obs.FlightRecorder
}

// ErrAborted marks pairs skipped after a FailFast batch hit its first
// routing failure.
var ErrAborted = errors.New("serve: batch aborted after an earlier routing failure")

// Histogram geometry of the serving statistics.
const (
	// hopBuckets caps the hop histogram; routes longer than this land in
	// the overflow bucket (quantiles then report hopBuckets).
	hopBuckets = 1024
	// StretchBuckets histogram bins of width StretchBucketWidth starting
	// at stretch 1.0; the final bucket collects everything above.
	StretchBuckets     = 64
	StretchBucketWidth = 0.25
)

// Latency histogram geometry: route latencies are measured on a deterministic
// 1-in-latSample subset of queries (a time.Now pair costs more than a short
// route, so per-query timing would dominate the hot path) and recorded in
// exponential nanosecond buckets: bucket i spans (256ns<<(i-1), 256ns<<i],
// covering 256ns..~17s before the overflow bucket.
const (
	latBuckets   = 27
	latSampleBit = 7 // sample iff QueryID(src,dst) & latSampleBit == 0 (1 in 8)
)

// latBucket maps a nanosecond latency to its histogram bucket.
func latBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns-1) >> 8)
	if b > latBuckets {
		b = latBuckets
	}
	return b
}

// latBoundNs is the upper bound of latency bucket i in nanoseconds.
func latBoundNs(i int) int64 { return 256 << uint(i) }

// statsChunk is the number of queries a batch worker accumulates in its
// private counters before folding them into the shard block under the
// lock. Chunking amortizes the mutex from one acquisition per query to one
// per chunk; the only observable effect is that Stats taken while a batch
// is in flight may lag the newest routes by up to a chunk (every counter
// is exact once Query returns).
const statsChunk = 512

// Stats is a merged snapshot of an engine's serving counters.
type Stats struct {
	Queries uint64 // total queries served (including failures)
	Errors  uint64 // routing failures
	// Unverified counts clean deliveries served without distance
	// verification (Verify off).
	Unverified uint64
	// BoundViolations counts clean deliveries whose routed weight exceeded
	// the scheme's proved StretchBound - must stay zero.
	BoundViolations uint64
	Elapsed         time.Duration // since the engine started or ResetStats
	QPS             float64       // Queries / Elapsed
	MeanHops        float64       // over deliveries
	P50Hops         int
	P99Hops         int
	// Latency quantiles are derived from the sampled latency histogram
	// (upper bucket bounds, so they are conservative); LatencySamples is
	// the number of measured queries behind them.
	LatencySamples uint64
	P50Latency     time.Duration
	P99Latency     time.Duration
	MaxStretch     float64
	// StretchHist[i] counts verified deliveries at positive distance with
	// stretch in [1+i*W, 1+(i+1)*W), W = StretchBucketWidth; the last
	// bucket collects everything above.
	StretchHist [StretchBuckets + 1]uint64
}

// counters is one shard's statistics block.
type counters struct {
	queries     uint64
	errors      uint64
	unverified  uint64
	violations  uint64
	hopsSum     uint64
	delivered   uint64
	maxStretch  float64
	latCount    uint64
	latSum      uint64 // nanoseconds over sampled queries
	deadHits    uint64
	detours     uint64
	detourHops  uint64
	fallbacks   uint64
	stale       uint64 // deliveries that were not provably clean
	maxStale    float64
	hopHist     [hopBuckets + 1]uint64
	stretchHist [StretchBuckets + 1]uint64
	staleHist   [StretchBuckets + 1]uint64
	latHist     [latBuckets + 1]uint64
}

// outcome is how one served query is accounted: whether it provably ran
// clean, its true distance (-1 unless Verify looked it up) and its sampled
// latency in nanoseconds (-1 when the query was not sampled).
type outcome struct {
	clean bool
	dist  float64
	lat   int64
}

// record accounts one served query. Every delivery is exactly one of
// clean-verified (checked against s's proved bound), clean-unverified, or
// stale - whatever Verify is set to; only the staleness-stretch histogram
// needs the distance.
func (c *counters) record(r *live.Result, o outcome, s simnet.Scheme) {
	c.queries++
	if o.lat >= 0 {
		c.latCount++
		c.latSum += uint64(o.lat)
		c.latHist[latBucket(o.lat)]++
	}
	c.deadHits += uint64(r.DeadHits)
	c.detours += uint64(r.Detours)
	c.detourHops += uint64(r.DetourHops)
	if r.Fallback {
		c.fallbacks++
	}
	if r.Err != nil {
		c.errors++
		return
	}
	c.delivered++
	c.hopsSum += uint64(r.Hops)
	c.hopHist[min(r.Hops, hopBuckets)]++
	switch {
	case !o.clean:
		c.stale++
		if o.dist > 0 {
			str := r.Weight / o.dist
			c.maxStale = max(c.maxStale, str)
			c.staleHist[stretchBucket(str)]++
		}
	case o.dist < 0:
		c.unverified++
	default:
		if r.Weight > s.StretchBound(o.dist)+1e-9 {
			c.violations++
		}
		if o.dist > 0 {
			str := r.Weight / o.dist
			c.maxStretch = max(c.maxStretch, str)
			c.stretchHist[stretchBucket(str)]++
		}
	}
}

// stretchBucket maps a stretch value to its histogram bucket.
func stretchBucket(str float64) int {
	return min(max(int((str-1)/StretchBucketWidth), 0), StretchBuckets)
}

// mergeFrom folds another block's counters into c (the caller holds the
// other shard's lock).
func (c *counters) mergeFrom(o *counters) {
	c.queries += o.queries
	c.errors += o.errors
	c.unverified += o.unverified
	c.violations += o.violations
	c.hopsSum += o.hopsSum
	c.delivered += o.delivered
	c.maxStretch = max(c.maxStretch, o.maxStretch)
	c.latCount += o.latCount
	c.latSum += o.latSum
	c.deadHits += o.deadHits
	c.detours += o.detours
	c.detourHops += o.detourHops
	c.fallbacks += o.fallbacks
	c.stale += o.stale
	c.maxStale = max(c.maxStale, o.maxStale)
	for i := range o.hopHist {
		c.hopHist[i] += o.hopHist[i]
	}
	for i := range o.stretchHist {
		c.stretchHist[i] += o.stretchHist[i]
		c.staleHist[i] += o.staleHist[i]
	}
	for i := range o.latHist {
		c.latHist[i] += o.latHist[i]
	}
}

// finalize turns merged counters into the exported snapshot, deriving the
// QPS and hop quantiles.
func (c *counters) finalize(startNanos int64) Stats {
	st := Stats{
		Queries:         c.queries,
		Errors:          c.errors,
		Unverified:      c.unverified,
		BoundViolations: c.violations,
		Elapsed:         time.Duration(time.Now().UnixNano() - startNanos),
		MaxStretch:      c.maxStretch,
		StretchHist:     c.stretchHist,
	}
	if st.Elapsed > 0 {
		st.QPS = float64(c.queries) / st.Elapsed.Seconds()
	}
	if c.delivered > 0 {
		st.MeanHops = float64(c.hopsSum) / float64(c.delivered)
		st.P50Hops = quantile(c.hopHist[:], c.delivered, 0.50)
		st.P99Hops = quantile(c.hopHist[:], c.delivered, 0.99)
	}
	if c.latCount > 0 {
		st.LatencySamples = c.latCount
		st.P50Latency = time.Duration(latBoundNs(quantile(c.latHist[:], c.latCount, 0.50)))
		st.P99Latency = time.Duration(latBoundNs(quantile(c.latHist[:], c.latCount, 0.99)))
	}
	return st
}

// quantile returns the nearest-rank q-quantile of a histogram: the smallest
// bucket index h such that at least ceil(q*total) observations fall in
// buckets [0, h]. The ceiling matters - with floor, p99 of 10 samples would
// target rank 9 and miss the maximum.
func quantile(hist []uint64, total uint64, q float64) int {
	target := max(uint64(math.Ceil(q*float64(total))), 1)
	var cum uint64
	for h, c := range hist {
		cum += c
		if cum >= target {
			return h
		}
	}
	return len(hist) - 1
}

// shard is one worker lane: the worker's job feed and the privately-owned
// counters. Shards are allocated separately so two lanes never share a
// cache line, and the read-mostly dispatch field is padded away from the
// mutex/counters the worker and Stats write - the dispatcher of one shard
// must not false-share with the stats traffic of another.
type shard struct {
	jobs chan batchJob
	_    [64]byte // keep dispatch reads off the stats line
	mu   sync.Mutex
	st   counters
	_    [64]byte
}

// batchJob is one contiguous block of a Query batch, dispatched to a shard
// worker. pairs and out are parallel slices of the caller's batch.
type batchJob struct {
	pairs [][2]graph.Vertex
	out   []live.Result
	bs    *batchState
}

// batchState is the pooled per-Query bookkeeping shared by the batch's
// jobs: the completion latch and the FailFast flag.
type batchState struct {
	wg     sync.WaitGroup
	failed atomic.Bool
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// closer owns the engine's shutdown state. It is shared by the engine, its
// workers and the runtime cleanup, and deliberately references neither the
// Live handle nor its shards: the cleanup must be able to fire (and release
// the workers) once the handle itself is unreachable.
type closer struct {
	mu     sync.RWMutex
	closed bool
	quit   chan struct{}
}

func (c *closer) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.quit)
	}
	c.mu.Unlock()
}

// core is the part of the engine that shard workers and the auditor reach:
// options, overlay, generation pointer, shards and closer. It holds no
// reference back to the Live handle, so an engine dropped without Close
// becomes unreachable while its workers are parked and the runtime cleanup
// registered on the handle can stop them.
type core struct {
	opts   LiveOptions
	ov     *live.Overlay
	dist   *live.Distances
	gen    atomic.Pointer[generation]
	shards []*shard
	cl     *closer
}

// acquireGen pins the current generation.
func (c *core) acquireGen() *generation {
	for {
		g := c.gen.Load()
		if g.tryAcquire() {
			return g
		}
	}
}

// route serves one query on a pinned generation into *res: deterministic
// trace and latency sampling, the router walk, the clean/stale
// classification, optional verification and the audit offer. Workers and
// Route both funnel through it, so sampling and attribution cannot diverge
// between them; they differ only in where the outcome is recorded and where
// the scratch packet lives.
func (c *core) route(gen *generation, scratch simnet.Packet, src, dst graph.Vertex, res *live.Result) (simnet.Packet, outcome) {
	// A route is bound-checked against the proved stretch bound only when
	// it provably ran clean: the overlay was empty before routing, no
	// update arrived while it ran (version unchanged), no generation swap
	// raced it, and the route itself crossed nothing patched. Every other
	// route - including the rare one that merely *races* churn - is
	// conservatively accounted as staleness, never as a false violation.
	ver, entries := c.ov.State()
	id := obs.QueryID(int32(src), int32(dst))
	tr := c.opts.Trace.Sample(int32(src), int32(dst))
	o := outcome{dist: -1, lat: -1}
	timed := id&latSampleBit == 0
	var t0 int64
	if timed {
		t0 = time.Now().UnixNano()
	}
	var pkt simnet.Packet
	*res, pkt = gen.router.RouteInto(scratch, src, dst, tr)
	if timed {
		o.lat = time.Now().UnixNano() - t0
	}
	if tr != nil {
		tr.Hops = res.Hops
		tr.Err = res.Err != nil
		tr.Stale = res.Stale()
		c.opts.Trace.Done(tr)
	}
	o.clean = !res.Stale() && entries == 0 && c.ov.Version() == ver && c.gen.Load() == gen
	if res.Err == nil {
		if c.opts.Verify {
			o.dist = c.verifyDist(src, dst, res.Weight)
		}
		c.opts.Audit.offer(id, int32(src), int32(dst), res.Weight, gen.id, ver, o.clean)
	}
	return pkt, o
}

// verifyDist resolves the true effective distance of a delivered route.
func (c *core) verifyDist(src, dst graph.Vertex, weight float64) float64 {
	if c.opts.VerifyBidi {
		if d := c.ov.BoundedBidiDist(src, dst, weight); !math.IsInf(d, 1) {
			return d
		}
		// The recorded weight undercuts the current effective distance -
		// only possible for a walk that raced churn; the row cache answers.
	}
	return c.dist.Dist(src, dst)
}

// worker is the serving loop state of one shard. It reaches the engine only
// through core (see core).
type worker struct {
	c   *core
	sh  *shard
	pkt simnet.Packet // worker-owned scratch, reused across routes
	// pktGen is the id of the generation that prepared pkt: a packet is
	// reused only within its generation, because a packet of the same Go
	// type from an older scheme may carry its retained state - and that
	// scheme may alias an mmap that has since been unmapped.
	pktGen uint64
	pend   counters // stats accumulated since the last flush
	pendN  int
}

func (w *worker) loop() {
	if w.c.opts.PinWorkers {
		runtime.LockOSThread()
	}
	for {
		select {
		case job := <-w.sh.jobs:
			w.serve(job)
		case <-w.c.cl.quit:
			// Drain jobs that were enqueued before the closed flag was
			// published, so no dispatched batch is left waiting.
			for {
				select {
				case job := <-w.sh.jobs:
					w.serve(job)
				default:
					return
				}
			}
		}
	}
}

// serve routes one job block and signals completion. The block pins one
// generation - the one-swap-stale RCU window swapTo documents; a swap that
// lands mid-block turns the rest of the block stale, never unclean-verified.
// Pairs aborted by FailFast are not routed and stay out of the statistics.
func (w *worker) serve(job batchJob) {
	gen := w.c.acquireGen()
	if gen.id != w.pktGen {
		w.pkt, w.pktGen = nil, gen.id
	}
	s := gen.router.Scheme()
	ff := w.c.opts.FailFast
	for j, p := range job.pairs {
		if ff && job.bs.failed.Load() {
			job.out[j] = live.Result{Src: p[0], Dst: p[1], Err: ErrAborted}
			continue
		}
		pkt, o := w.c.route(gen, w.pkt, p[0], p[1], &job.out[j])
		if pkt != nil {
			w.pkt = pkt
		}
		w.pend.record(&job.out[j], o, s)
		if w.pendN++; w.pendN >= statsChunk {
			w.flush()
		}
		if ff && job.out[j].Err != nil {
			job.bs.failed.Store(true)
		}
	}
	gen.release()
	w.flush()
	job.bs.wg.Done()
}

// flush folds the worker's pending counters into the shard block.
func (w *worker) flush() {
	if w.pendN == 0 {
		return
	}
	w.sh.mu.Lock()
	w.sh.st.mergeFrom(&w.pend)
	w.sh.mu.Unlock()
	w.pend = counters{}
	w.pendN = 0
}

// Route serves a single query on the next shard (round robin), recording
// its stats immediately. Scratch packets come from a per-generation pool,
// so a warm engine routes without allocating.
func (l *Live) Route(src, dst graph.Vertex) live.Result {
	sh := l.shards[l.rr.Add(1)%uint64(len(l.shards))]
	gen := l.acquireGen()
	scratch, _ := gen.pkts.Get().(simnet.Packet)
	var res live.Result
	pkt, o := l.route(gen, scratch, src, dst, &res)
	if pkt != nil {
		gen.pkts.Put(pkt)
	}
	sh.mu.Lock()
	sh.st.record(&res, o, gen.router.Scheme())
	sh.mu.Unlock()
	gen.release()
	return res
}

// Query serves a batch: every pair is routed, out[i] receives the outcome
// of pairs[i]. out is allocated when nil or too short; the filled prefix is
// returned. Pairs are split into contiguous blocks, one per shard, and
// dispatched to the persistent shard workers - slot ownership that makes
// the per-pair results independent of the worker count. With a
// preallocated out, a reuse-capable scheme and an empty overlay the
// steady-state batch path does not allocate.
func (l *Live) Query(pairs [][2]graph.Vertex, out []live.Result) []live.Result {
	if len(out) < len(pairs) {
		out = make([]live.Result, len(pairs))
	}
	out = out[:len(pairs)]
	if len(pairs) == 0 {
		return out
	}
	w := min(len(l.shards), len(pairs))
	chunk := (len(pairs) + w - 1) / w
	bs := batchPool.Get().(*batchState)
	bs.failed.Store(false)
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := min(lo+chunk, len(pairs))
		bs.wg.Add(1)
		l.dispatch(l.shards[lo/chunk], batchJob{pairs: pairs[lo:hi], out: out[lo:hi], bs: bs})
	}
	bs.wg.Wait()
	batchPool.Put(bs)
	return out
}

// dispatch hands a job to a shard worker, or serves it inline once the
// engine is closed. The closer's read lock makes the closed check and the
// channel send atomic with respect to Close, so a job is never parked on a
// channel no worker will drain.
func (l *Live) dispatch(sh *shard, job batchJob) {
	l.cl.mu.RLock()
	if l.cl.closed {
		l.cl.mu.RUnlock()
		(&worker{c: l.core, sh: sh}).serve(job)
		return
	}
	sh.jobs <- job
	l.cl.mu.RUnlock()
}

// Close stops the shard workers. It is idempotent and safe to call
// concurrently with queries: batches already dispatched are finished, and
// later Query calls are served inline on the caller's goroutine. An engine
// dropped without Close releases its workers when the garbage collector
// collects it.
func (l *Live) Close() { l.cl.close() }

// Workers returns the number of shards.
func (l *Live) Workers() int { return len(l.shards) }

// merged folds every shard's counters into one block.
func (l *Live) merged() counters {
	var m counters
	for _, sh := range l.shards {
		sh.mu.Lock()
		m.mergeFrom(&sh.st)
		sh.mu.Unlock()
	}
	return m
}

// ResetStats zeroes every shard's counters and restarts the QPS clock (the
// rebuild/swap lifecycle counters are engine-lifetime and survive).
func (l *Live) ResetStats() {
	for _, sh := range l.shards {
		sh.mu.Lock()
		sh.st = counters{}
		sh.mu.Unlock()
	}
	l.start.Store(time.Now().UnixNano())
}
