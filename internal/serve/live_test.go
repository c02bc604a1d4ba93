package serve_test

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/scheme5"
	"compactroute/internal/serve"
	"compactroute/internal/simnet"
	"compactroute/internal/testutil"
)

// buildThm11 is the deterministic BuildFunc the live tests rebuild with.
func buildThm11(seed int64) serve.BuildFunc {
	return func(g *graph.Graph) (simnet.Scheme, error) {
		return scheme5.New(g, graph.NewLazyAPSP(g, graph.LazyConfig{}), scheme5.Params{Eps: 0.5, Seed: seed})
	}
}

func newLiveEngine(t *testing.T, n, m int, seed int64, o serve.LiveOptions) *serve.Live {
	t.Helper()
	g := testutil.MustGNM(t, n, m, seed, gen.UniformInt)
	s, err := buildThm11(seed)(g)
	if err != nil {
		t.Fatal(err)
	}
	if o.Build == nil {
		o.Build = buildThm11(seed)
	}
	l, err := serve.NewLive(s, o)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLiveServesThroughChurnAndSwap is the end-to-end acceptance path: a
// deterministic 10% edge-deletion trace, every query answered with a finite
// route throughout (degraded service flagged as staleness, not violations),
// and after rebuild+hot-swap the stretch histogram is bit-identical to a
// from-scratch build on the churned graph.
func TestLiveServesThroughChurnAndSwap(t *testing.T) {
	const n, seed = 300, 2015
	l := newLiveEngine(t, n, 4*n, seed, serve.LiveOptions{Workers: 4, Verify: true})
	base := l.Scheme().Graph()
	pairs := testutil.Pairs(n, 7, 11)

	// Phase A: clean serving, proved bound enforced.
	for _, r := range l.Query(pairs, nil) {
		if r.Err != nil {
			t.Fatalf("clean phase: %v", r.Err)
		}
	}
	if st := l.Stats(); st.BoundViolations != 0 || st.StaleServed != 0 {
		t.Fatalf("clean phase: %d violations, %d stale", st.BoundViolations, st.StaleServed)
	}

	// Phase B: apply the deletion trace in chunks, querying between chunks.
	trace := live.DeletionTrace(base, 0.10, 42)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	chunk := (len(trace) + 3) / 4
	for lo := 0; lo < len(trace); lo += chunk {
		hi := min(lo+chunk, len(trace))
		if err := l.ApplyUpdates(trace[lo:hi]); err != nil {
			t.Fatal(err)
		}
		for _, r := range l.Query(pairs, nil) {
			if r.Err != nil {
				t.Fatalf("degraded phase: %v", r.Err)
			}
		}
	}
	degraded := l.Stats()
	if degraded.BoundViolations != 0 {
		t.Fatalf("degraded phase charged %d bound violations (must be staleness instead)", degraded.BoundViolations)
	}
	if degraded.StaleServed == 0 || degraded.DeadEdgeHits == 0 {
		t.Fatalf("10%% deletions served nothing degraded: %+v", degraded)
	}

	// Phase C: rebuild + hot-swap, then serve clean again.
	if err := l.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if l.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", l.Generation())
	}
	if !l.Overlay().Empty() {
		t.Fatalf("overlay still has %d entries after the swap", l.Overlay().Len())
	}
	l.ResetStats()
	for _, r := range l.Query(pairs, nil) {
		if r.Err != nil {
			t.Fatalf("recovered phase: %v", r.Err)
		}
		if r.Stale() {
			t.Fatalf("recovered phase served a stale route: %+v", r)
		}
	}
	recovered := l.Stats()
	if recovered.BoundViolations != 0 || recovered.StaleServed != 0 {
		t.Fatalf("recovered phase: %d violations, %d stale", recovered.BoundViolations, recovered.StaleServed)
	}

	// From-scratch reference: build on the churned graph directly and serve
	// the same pairs through a fresh engine. Histograms must match bit for
	// bit.
	churned := l.Scheme().Graph()
	ref, err := buildThm11(seed)(churned)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewLive(ref, serve.LiveOptions{Workers: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, r := range eng.Query(pairs, nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	refSt := eng.Stats()
	if refSt.BoundViolations != 0 {
		t.Fatalf("from-scratch build violated its bound %d times", refSt.BoundViolations)
	}
	if recovered.StretchHist != refSt.StretchHist {
		t.Fatalf("post-swap stretch histogram differs from the from-scratch build:\n%v\n%v",
			recovered.StretchHist, refSt.StretchHist)
	}
	if recovered.MaxStretch != refSt.MaxStretch {
		t.Fatalf("post-swap max stretch %v != from-scratch %v", recovered.MaxStretch, refSt.MaxStretch)
	}
}

// TestLiveVerifyMatchesMaterializedReference pins what Verify proves: over
// a 5% deletion overlay and again after Rebuild, the engine's stretch and
// staleness statistics equal those recomputed for the same results from
// graph.ShortestPaths on the materialized effective graph.
func TestLiveVerifyMatchesMaterializedReference(t *testing.T) {
	const n, seed = 200, 31
	l := newLiveEngine(t, n, 4*n, seed, serve.LiveOptions{Workers: 3, Verify: true})
	defer l.Close()
	pairs := testutil.Pairs(n, 5, 3)
	check := func(phase string) {
		t.Helper()
		l.ResetStats()
		results := l.Query(pairs, nil)
		mat, err := l.Overlay().Materialize()
		if err != nil {
			t.Fatal(err)
		}
		var want serve.LiveStats
		rows := map[graph.Vertex][]float64{}
		bucket := func(str float64) int {
			return min(max(int((str-1)/serve.StretchBucketWidth), 0), serve.StretchBuckets)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: route %d->%d: %v", phase, r.Src, r.Dst, r.Err)
			}
			if rows[r.Src] == nil {
				rows[r.Src] = mat.ShortestPaths(r.Src).Dist
			}
			d := rows[r.Src][r.Dst]
			if r.Stale() || !l.Overlay().Empty() {
				want.StaleServed++
				if d > 0 {
					want.MaxStaleStretch = max(want.MaxStaleStretch, r.Weight/d)
					want.StaleHist[bucket(r.Weight/d)]++
				}
				continue
			}
			if r.Weight > l.Scheme().StretchBound(d)+1e-9 {
				want.BoundViolations++
			}
			if d > 0 {
				want.MaxStretch = max(want.MaxStretch, r.Weight/d)
				want.StretchHist[bucket(r.Weight/d)]++
			}
		}
		got := l.Stats()
		if got.StretchHist != want.StretchHist || got.BoundViolations != want.BoundViolations ||
			got.MaxStretch != want.MaxStretch || got.StaleServed != want.StaleServed ||
			got.MaxStaleStretch != want.MaxStaleStretch || got.StaleHist != want.StaleHist {
			t.Fatalf("%s: engine stats diverge from the materialized reference\n got: hist=%v viol=%d max=%v stale=%d maxStale=%v staleHist=%v\nwant: hist=%v viol=%d max=%v stale=%d maxStale=%v staleHist=%v",
				phase, got.StretchHist, got.BoundViolations, got.MaxStretch, got.StaleServed, got.MaxStaleStretch, got.StaleHist,
				want.StretchHist, want.BoundViolations, want.MaxStretch, want.StaleServed, want.MaxStaleStretch, want.StaleHist)
		}
		if got.Unverified != 0 {
			t.Fatalf("%s: %d deliveries went unverified", phase, got.Unverified)
		}
	}
	if err := l.ApplyUpdates(live.DeletionTrace(l.Scheme().Graph(), 0.05, seed)); err != nil {
		t.Fatal(err)
	}
	check("degraded")
	if err := l.Rebuild(); err != nil {
		t.Fatal(err)
	}
	check("rebuilt")
}

// TestLiveSwapUnderLoad hot-swaps while queries hammer the engine from many
// goroutines: no query may fail, block, or be dropped, and the final stats
// must account every single query issued (none lost across the swap). The
// initial generation carries a Retire hook (the munmap point for mapped
// snapshots): it must fire exactly once, and only after the swap has
// replaced the generation and every in-flight query on it has drained.
func TestLiveSwapUnderLoad(t *testing.T) {
	const n, seed = 150, 7
	var retired atomic.Int64
	l := newLiveEngine(t, n, 4*n, seed, serve.LiveOptions{Workers: 4, Verify: true,
		Retire: func() { retired.Add(1) }})
	trace := live.DeletionTrace(l.Scheme().Graph(), 0.08, 5)
	if got := retired.Load(); got != 0 {
		t.Fatalf("retire hook fired %d times before any swap", got)
	}

	var issued atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pairs := testutil.Pairs(n, 2+w, 3+w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range l.Query(pairs, nil) {
					if r.Err != nil {
						t.Errorf("query failed during swap: %v", r.Err)
						return
					}
				}
				issued.Add(uint64(len(pairs)))
			}
		}(w)
	}
	// Churn and swap twice while the load runs.
	for i := 0; i < 2; i++ {
		half := len(trace) / 2
		part := trace[i*half : (i+1)*half]
		if err := l.ApplyUpdates(part); err != nil {
			t.Fatal(err)
		}
		if err := <-l.RebuildAsync(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	st := l.Stats()
	if st.Queries < issued.Load() {
		t.Fatalf("stats lost queries across the swap: recorded %d, issued at least %d", st.Queries, issued.Load())
	}
	if st.Errors != 0 {
		t.Fatalf("%d routing errors under swap load", st.Errors)
	}
	if l.Generation() != 2 || st.Swaps != 2 {
		t.Fatalf("generation %d, swaps %d, want 2/2", l.Generation(), st.Swaps)
	}
	// By now every Query call has returned, so every reference on the
	// swapped-out initial generation has been released: the retire hook must
	// have fired, and exactly once (later generations carry no hook).
	if got := retired.Load(); got != 1 {
		t.Fatalf("retire hook fired %d times after two swaps and full drain, want exactly 1", got)
	}
}

// TestLiveRebuildExclusive: a second Rebuild while one is in flight returns
// ErrRebuildInFlight, and a Build-less engine refuses to rebuild.
func TestLiveRebuildExclusive(t *testing.T) {
	const n = 100
	g := testutil.MustGNM(t, n, 4*n, 3, gen.UniformInt)
	s, err := buildThm11(3)(g)
	if err != nil {
		t.Fatal(err)
	}
	noBuild, err := serve.NewLive(s, serve.LiveOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := noBuild.Rebuild(); err == nil {
		t.Fatal("rebuild without a Build function must fail")
	}

	gate := make(chan struct{})
	l, err := serve.NewLive(s, serve.LiveOptions{Workers: 2, Build: func(g *graph.Graph) (simnet.Scheme, error) {
		<-gate
		return buildThm11(3)(g)
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := l.RebuildAsync()
	for !l.Rebuilding() {
		runtime.Gosched()
	}
	if err := l.Rebuild(); err != serve.ErrRebuildInFlight {
		t.Fatalf("concurrent rebuild: %v, want ErrRebuildInFlight", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestLiveUpdateDuringRebuildNotLost is the regression test for the
// rebuild/update race: an update that lands while a rebuild is between
// materializing the effective graph and rebasing the overlay, and that
// restores an edge to its *old*-base weight, used to be normalized to "no
// overlay entry" and then silently swallowed by the rebase - the new base
// kept the churned weight the update had just undone. The engine must
// quiesce such updates and drain them after the swap.
func TestLiveUpdateDuringRebuildNotLost(t *testing.T) {
	const n, seed = 120, 4
	g := testutil.MustGNM(t, n, 4*n, seed, gen.UniformInt)
	s, err := buildThm11(seed)(g)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	l, err := serve.NewLive(s, serve.LiveOptions{Workers: 2, Build: func(g *graph.Graph) (simnet.Scheme, error) {
		once.Do(func() { close(entered) })
		<-gate
		return buildThm11(seed)(g)
	}})
	if err != nil {
		t.Fatal(err)
	}
	// A base edge and its original weight.
	var eu, ev graph.Vertex
	var w0 float64
	g.Neighbors(0, func(_ graph.Port, v graph.Vertex, w float64) bool {
		eu, ev, w0 = 0, v, w
		return false
	})
	if err := l.ApplyUpdates([]live.Update{live.SetWeight(eu, ev, w0+5)}); err != nil {
		t.Fatal(err)
	}
	done := l.RebuildAsync()
	<-entered // the rebuild has materialized the w0+5 graph and is building
	if err := l.ApplyUpdates([]live.Update{live.SetWeight(eu, ev, w0)}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w, alive := l.Overlay().EdgeState(eu, ev); !alive || w != w0 {
		t.Fatalf("update during rebuild lost: edge {%d,%d} serves weight %v alive=%v, want %v", eu, ev, w, alive, w0)
	}
	if st := l.Stats(); st.PendingDropped != 0 {
		t.Fatalf("drain dropped %d valid updates", st.PendingDropped)
	}
	// The restored weight differs from the rebuilt base (w0+5), so it must
	// live on as an overlay entry.
	if l.Overlay().Empty() {
		t.Fatal("overlay empty: the restoring update was normalized away")
	}
}

// repairPair builds the coupled (build, repair) functions of the Theorem 11
// repair path for the live tests - the internal mirror of the public
// RepairFuncFor.
func repairPair(seed int64) (serve.BuildFunc, serve.RepairFunc) {
	params := scheme5.Params{Eps: 0.5, Seed: seed}
	var mu sync.Mutex
	var cur *scheme5.Repairable
	build := func(g *graph.Graph) (simnet.Scheme, error) {
		r, err := scheme5.NewRepairable(g, graph.NewLazyAPSP(g, graph.LazyConfig{}), params)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		cur = r
		mu.Unlock()
		return r.Scheme(), nil
	}
	repair := func(old simnet.Scheme, g *graph.Graph, entries []live.Entry) (simnet.Scheme, serve.RepairInfo, error) {
		var info serve.RepairInfo
		mu.Lock()
		r := cur
		mu.Unlock()
		if r == nil || old != simnet.Scheme(r.Scheme()) {
			return nil, info, scheme5.ErrNotRepairable
		}
		edges := make([][2]graph.Vertex, len(entries))
		for i, e := range entries {
			edges[i] = [2]graph.Vertex{e.U, e.V}
		}
		next, st, err := r.Repair(g, graph.NewLazyAPSP(g, graph.LazyConfig{}), edges)
		if err != nil {
			return nil, info, err
		}
		mu.Lock()
		cur = next
		mu.Unlock()
		return next.Scheme(), serve.RepairInfo{Edges: st.Edges, DirtyVics: st.DirtyVics,
			DirtyClusters: st.DirtyClusters, DirtySeqs: st.DirtySeqs, DirtyLabels: st.DirtyLabels}, nil
	}
	return build, repair
}

// TestLiveRefreshRepairsThenEscalates drives the policy: a small delta is
// absorbed by an in-place repair (no rebuild), a delta over the policy limit
// forces a full rebuild, and serving stays correct throughout.
func TestLiveRefreshRepairsThenEscalates(t *testing.T) {
	const n, seed = 160, 2015
	g := testutil.MustGNM(t, n, 4*n, seed, gen.UniformInt)
	build, repair := repairPair(seed)
	s, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := serve.NewLive(s, serve.LiveOptions{Workers: 2, Verify: true,
		Build: build, Repair: repair, Policy: serve.RepairPolicy{MaxRepairEntries: 4}})
	if err != nil {
		t.Fatal(err)
	}
	trace := live.DeletionTrace(g, 0.10, 13)
	if len(trace) < 8 {
		t.Fatalf("trace too short: %d", len(trace))
	}

	// Small delta: policy selects repair.
	if err := l.ApplyUpdates(trace[:2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Repairs != 1 || st.Rebuilds != 0 || st.Escalations != 0 {
		t.Fatalf("small delta: repairs=%d rebuilds=%d escalations=%d, want 1/0/0 (%+v)",
			st.Repairs, st.Rebuilds, st.Escalations, st.LastRepairInfo)
	}
	if st.LastRepairInfo.Edges == 0 || st.LastRepairInfo.DirtyVics == 0 {
		t.Fatalf("repair info not recorded: %+v", st.LastRepairInfo)
	}
	if l.Generation() != 1 || !l.Overlay().Empty() {
		t.Fatalf("repair did not swap/absorb: gen=%d overlay=%d", l.Generation(), l.Overlay().Len())
	}
	for _, r := range l.Query(testutil.Pairs(n, 7, 11), nil) {
		if r.Err != nil {
			t.Fatalf("after repair: %v", r.Err)
		}
	}

	// Large delta: policy escalates to a full rebuild.
	if err := l.ApplyUpdates(trace[2:8]); err != nil {
		t.Fatal(err)
	}
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	st = l.Stats()
	if st.Repairs != 1 || st.Rebuilds != 1 {
		t.Fatalf("large delta: repairs=%d rebuilds=%d, want 1/1", st.Repairs, st.Rebuilds)
	}
	if l.Generation() != 2 || !l.Overlay().Empty() {
		t.Fatalf("rebuild did not swap/absorb: gen=%d overlay=%d", l.Generation(), l.Overlay().Len())
	}

	// A third small delta repairs again - the full rebuild re-armed the
	// repair state for the new base.
	if err := l.ApplyUpdates(trace[8:9]); err != nil {
		t.Fatal(err)
	}
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st = l.Stats(); st.Repairs != 2 || st.Rebuilds != 1 || st.Escalations != 0 {
		t.Fatalf("re-armed delta: repairs=%d rebuilds=%d escalations=%d, want 2/1/0", st.Repairs, st.Rebuilds, st.Escalations)
	}
}

// TestLiveRefreshEscalatesWithoutRepairState: when the serving scheme was
// not produced by the paired build function (e.g. restored from a snapshot,
// which carries no touch index), Refresh tries the repair, counts the
// escalation, and falls back to a full rebuild.
func TestLiveRefreshEscalatesWithoutRepairState(t *testing.T) {
	const n, seed = 100, 6
	g := testutil.MustGNM(t, n, 4*n, seed, gen.UniformInt)
	s, err := buildThm11(seed)(g) // foreign to the repair pair below
	if err != nil {
		t.Fatal(err)
	}
	build, repair := repairPair(seed)
	l, err := serve.NewLive(s, serve.LiveOptions{Workers: 2, Build: build, Repair: repair})
	if err != nil {
		t.Fatal(err)
	}
	trace := live.DeletionTrace(g, 0.05, 3)
	if err := l.ApplyUpdates(trace[:1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Repairs != 0 || st.RepairErrors != 1 || st.Escalations != 1 || st.Rebuilds != 1 {
		t.Fatalf("foreign scheme: repairs=%d repairErrs=%d escalations=%d rebuilds=%d, want 0/1/1/1",
			st.Repairs, st.RepairErrors, st.Escalations, st.Rebuilds)
	}
}

// TestLiveUpdateErrors: invalid updates are rejected with the failing index
// and leave serving intact.
func TestLiveUpdateErrors(t *testing.T) {
	const n = 80
	l := newLiveEngine(t, n, 3*n, 9, serve.LiveOptions{Workers: 2})
	err := l.ApplyUpdates([]live.Update{live.DelEdge(0, 0)})
	if err == nil {
		t.Fatal("self-loop delete accepted")
	}
	if r := l.Route(1, 2); r.Err != nil {
		t.Fatalf("serving broken after rejected update: %v", r.Err)
	}
}

// TestLiveStaleServedWithoutVerify: staleness accounting does not depend on
// Verify. Deliveries that cross dead edges count as stale on an engine that
// never looks up a distance, so the MaxStaleServed policy still turns
// Refresh into a full rebuild.
func TestLiveStaleServedWithoutVerify(t *testing.T) {
	const n, seed = 160, 2015
	g := testutil.MustGNM(t, n, 4*n, seed, gen.UniformInt)
	build, repair := repairPair(seed)
	s, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := serve.NewLive(s, serve.LiveOptions{Workers: 2, Build: build, Repair: repair,
		Policy: serve.RepairPolicy{MaxRepairEntries: 1 << 20, MaxStaleServed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.ApplyUpdates(live.DeletionTrace(g, 0.05, 17)); err != nil {
		t.Fatal(err)
	}
	for _, r := range l.Query(testutil.Pairs(n, 7, 11), nil) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := l.Stats()
	if st.DeadEdgeHits == 0 {
		t.Fatal("no route crossed a dead edge")
	}
	if st.StaleServed == 0 || st.Unverified+st.StaleServed != st.Queries {
		t.Fatalf("stale=%d unverified=%d queries=%d: every delivery over a non-empty overlay is stale",
			st.StaleServed, st.Unverified, st.Queries)
	}
	if err := l.Refresh(); err != nil {
		t.Fatal(err)
	}
	if st = l.Stats(); st.Rebuilds != 1 || st.Repairs != 0 || st.Escalations != 0 {
		t.Fatalf("rebuilds=%d repairs=%d escalations=%d, want the stale-served limit to force 1/0/0",
			st.Rebuilds, st.Repairs, st.Escalations)
	}
}

// TestLiveQueryDeterministicAcrossWorkers: over a churned overlay - detours,
// fallbacks, staleness stretch - the per-pair results and every counter of
// the merged statistics are independent of the worker count.
func TestLiveQueryDeterministicAcrossWorkers(t *testing.T) {
	const n, seed = 200, 5
	g := testutil.MustGNM(t, n, 4*n, seed, gen.UniformInt)
	s, err := buildThm11(seed)(g)
	if err != nil {
		t.Fatal(err)
	}
	trace := live.DeletionTrace(g, 0.05, 9)
	pairs := testutil.Pairs(n, 5, 3)
	run := func(workers int) ([]live.Result, serve.LiveStats) {
		l, err := serve.NewLive(s, serve.LiveOptions{Workers: workers, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.ApplyUpdates(trace); err != nil {
			t.Fatal(err)
		}
		out := l.Query(pairs, nil)
		st := l.Stats()
		// Wall-clock fields are not part of the contract.
		st.Elapsed, st.QPS = 0, 0
		st.LatencySamples, st.P50Latency, st.P99Latency = 0, 0, 0
		return out, st
	}
	want, wantSt := run(1)
	if wantSt.StaleServed == 0 || wantSt.Detours == 0 {
		t.Fatalf("5%% deletions served nothing degraded: %+v", wantSt)
	}
	for _, workers := range []int{2, 4} {
		got, gotSt := run(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
		if gotSt != wantSt {
			t.Fatalf("workers=%d: stats differ from workers=1:\n got %+v\nwant %+v", workers, gotSt, wantSt)
		}
	}
}

// TestLiveDroppedEngineReleasesWorkers: an engine dropped without Close
// stops its shard workers once the garbage collector collects it - the
// workers reach only the engine core, never the handle the cleanup watches.
func TestLiveDroppedEngineReleasesWorkers(t *testing.T) {
	const n, seed = 80, 3
	g := testutil.MustGNM(t, n, 4*n, seed, gen.UniformInt)
	s, err := buildThm11(seed)(g)
	if err != nil {
		t.Fatal(err)
	}
	a := serve.NewAuditor(1, 1, 64)
	defer a.Close()
	baseline := runtime.NumGoroutine()
	func() {
		l, err := serve.NewLive(s, serve.LiveOptions{Workers: 4, Audit: a})
		if err != nil {
			t.Fatal(err)
		}
		l.Query(testutil.Pairs(n, 2, 1), nil)
		a.Flush()
	}()
	// The auditor's own worker started with the engine and is not the
	// engine's to stop.
	baseline++
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after dropping the engine, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
