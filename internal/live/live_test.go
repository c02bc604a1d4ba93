package live_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"compactroute/internal/exact"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/scheme5"
	"compactroute/internal/simnet"
	"compactroute/internal/testutil"
	"compactroute/internal/wire"
)

func mustApply(t *testing.T, ov *live.Overlay, ups ...live.Update) {
	t.Helper()
	for _, up := range ups {
		if err := ov.Apply(up); err != nil {
			t.Fatalf("apply %v: %v", up, err)
		}
	}
}

func TestOverlayStatesAndNormalization(t *testing.T) {
	g := testutil.MustGNM(t, 30, 60, 1, gen.UniformInt)
	ov := live.NewOverlay(g)
	if !ov.Empty() || ov.Version() != 0 {
		t.Fatal("fresh overlay must be empty at version 0")
	}
	// Find a base edge and a non-edge.
	var eu, ev graph.Vertex
	g.Neighbors(0, func(_ graph.Port, v graph.Vertex, _ float64) bool {
		eu, ev = 0, v
		return false
	})
	baseW, _ := g.EdgeWeight(eu, ev)
	var nu, nv graph.Vertex = -1, -1
	for v := graph.Vertex(1); int(v) < g.N(); v++ {
		if !g.HasEdge(0, v) {
			nu, nv = 0, v
			break
		}
	}
	if nv < 0 {
		t.Fatal("no non-edge found")
	}

	// Reweight, then restore the base weight: the overlay must normalize
	// back to empty.
	mustApply(t, ov, live.SetWeight(eu, ev, baseW+3))
	if w, alive := ov.EdgeState(eu, ev); !alive || w != baseW+3 {
		t.Fatalf("EdgeState = (%v, %v), want (%v, true)", w, alive, baseW+3)
	}
	if ov.Empty() {
		t.Fatal("overlay should track the reweighted edge")
	}
	mustApply(t, ov, live.SetWeight(eu, ev, baseW))
	if !ov.Empty() {
		t.Fatal("restoring the base weight must normalize the entry away")
	}

	// Delete and revive at the base weight: normalizes away too.
	mustApply(t, ov, live.DelEdge(eu, ev))
	if _, alive := ov.EdgeState(eu, ev); alive {
		t.Fatal("deleted edge still alive")
	}
	mustApply(t, ov, live.AddEdge(eu, ev, baseW))
	if !ov.Empty() {
		t.Fatal("revival at base weight must normalize the entry away")
	}

	// Insert a non-edge, then delete it: back to empty.
	mustApply(t, ov, live.AddEdge(nu, nv, 7))
	if w, alive := ov.EdgeState(nu, nv); !alive || w != 7 {
		t.Fatalf("inserted edge state = (%v, %v)", w, alive)
	}
	mustApply(t, ov, live.DelEdge(nu, nv))
	if !ov.Empty() {
		t.Fatal("deleting an inserted edge must normalize the entry away")
	}
	if ov.Version() != 6 {
		t.Fatalf("version = %d, want 6", ov.Version())
	}
}

func TestOverlayRejectsInvalidUpdates(t *testing.T) {
	g := testutil.MustGNM(t, 10, 20, 1, gen.Unit)
	ov := live.NewOverlay(g)
	var eu, ev graph.Vertex
	g.Neighbors(0, func(_ graph.Port, v graph.Vertex, _ float64) bool {
		eu, ev = 0, v
		return false
	})
	cases := []live.Update{
		live.DelEdge(3, 3),                                    // self loop
		live.DelEdge(0, 100),                                  // out of range
		live.AddEdge(eu, ev, 2),                               // already exists
		live.SetWeight(eu, ev, -1),                            // bad weight
		live.SetWeight(eu, ev, math.Inf(1)),                   // bad weight
		live.SetWeight(eu, ev, math.NaN()),                    // bad weight
		{Op: live.Op(99), U: 0, V: 1, W: 1},                   // unknown op
		live.SetWeight(nonEdge(t, g)[0], nonEdge(t, g)[1], 2), // missing edge
	}
	for _, up := range cases {
		if err := ov.Apply(up); err == nil {
			t.Errorf("Apply(%v) accepted", up)
		}
	}
	if !ov.Empty() || ov.Version() != 0 {
		t.Fatal("rejected updates must not change the overlay")
	}
}

func nonEdge(t *testing.T, g *graph.Graph) [2]graph.Vertex {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(graph.Vertex(u), graph.Vertex(v)) {
				return [2]graph.Vertex{graph.Vertex(u), graph.Vertex(v)}
			}
		}
	}
	t.Fatal("graph is complete")
	return [2]graph.Vertex{}
}

// TestMaterializeMatchesFromScratch: materializing base+overlay must be
// bit-identical (same fingerprint) to building the churned graph from
// scratch - the property the generation rebuild relies on.
func TestMaterializeMatchesFromScratch(t *testing.T) {
	g := testutil.MustGNM(t, 60, 180, 3, gen.UniformInt)
	ov := live.NewOverlay(g)
	trace := live.ChurnTrace(g, 40, 99, 16)
	if len(trace) < 30 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	for _, up := range trace {
		mustApply(t, ov, up)
	}
	got, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// From scratch: apply the same edge set to a fresh builder.
	b := graph.NewBuilder(g.N())
	seen := map[[2]graph.Vertex]bool{}
	for u := 0; u < g.N(); u++ {
		ov.Neighbors(graph.Vertex(u), func(v graph.Vertex, w float64) bool {
			k := [2]graph.Vertex{graph.Vertex(u), v}
			if k[0] > k[1] {
				k[0], k[1] = k[1], k[0]
			}
			if !seen[k] {
				seen[k] = true
				b.AddEdge(k[0], k[1], w)
			}
			return true
		})
	}
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("materialized fingerprint %016x != from-scratch %016x", got.Fingerprint(), want.Fingerprint())
	}
}

// TestEffectiveRowsMatchMaterialized: the effective distances serving
// verification reads - unbounded overlay BoundedBidiDist - must reproduce
// every ShortestPaths row of the materialized graph bit for bit, from every
// source, on unit and weighted bases.
func TestEffectiveRowsMatchMaterialized(t *testing.T) {
	for _, weighting := range []gen.Weighting{gen.Unit, gen.UniformInt} {
		g := testutil.MustGNM(t, 50, 150, 5, weighting)
		ov := live.NewOverlay(g)
		for _, up := range live.ChurnTrace(g, 30, 7, 8) {
			mustApply(t, ov, up)
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < g.N(); src++ {
			want := mat.ShortestPaths(graph.Vertex(src))
			for v := 0; v < g.N(); v++ {
				if got := ov.BoundedBidiDist(graph.Vertex(src), graph.Vertex(v), graph.Infinity); got != want.Dist[v] {
					t.Fatalf("weighting %v: dist(%d,%d) = %v, want %v", weighting, src, v, got, want.Dist[v])
				}
			}
		}
	}
}

// materializedDist is the reference effective distance: all-pairs shortest
// paths over the overlay's materialized graph.
func materializedDist(t *testing.T, ov *live.Overlay) graph.PathSource {
	t.Helper()
	mat, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return graph.AllPairs(mat)
}

// TestRouterDetoursAroundDeadEdges: on a deletion trace, every query routes
// to a finite effective walk, and routes that dodge dead edges are flagged
// stale.
func TestRouterDetoursAroundDeadEdges(t *testing.T) {
	g := testutil.MustGNM(t, 80, 240, 11, gen.UniformInt)
	apsp := graph.AllPairs(g)
	s, err := scheme5.New(g, apsp, scheme5.Params{Eps: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ov := live.NewOverlay(g)
	trace := live.DeletionTrace(g, 0.12, 42)
	if len(trace) == 0 {
		t.Fatal("empty deletion trace")
	}
	for _, up := range trace {
		mustApply(t, ov, up)
	}
	r, err := live.NewRouter(s, ov, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := materializedDist(t, ov)
	stale := 0
	for _, p := range testutil.Pairs(g.N(), 2, 13) {
		res := r.Route(p[0], p[1])
		if res.Err != nil {
			t.Fatalf("route %d->%d: %v", p[0], p[1], res.Err)
		}
		d := dist.Dist(p[0], p[1])
		if math.IsInf(d, 1) {
			t.Fatalf("pair %v unreachable in a connected effective graph", p)
		}
		if res.Weight < d-1e-9 {
			t.Fatalf("route %d->%d weight %v beats true effective distance %v", p[0], p[1], res.Weight, d)
		}
		if res.Stale() {
			stale++
		}
		if res.DeadHits > 0 && res.Detours+boolToInt(res.Fallback) == 0 {
			t.Fatalf("dead hits without detour or fallback: %+v", res)
		}
	}
	if stale == 0 {
		t.Fatal("a 12% deletion trace should have patched at least one route")
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRouterCleanOverlayMatchesSimnet: with an empty overlay, the patched
// router must reproduce the scheme's own walks exactly.
func TestRouterCleanOverlayMatchesSimnet(t *testing.T) {
	g := testutil.MustGNM(t, 60, 180, 9, gen.UniformInt)
	apsp := graph.AllPairs(g)
	s, err := scheme5.New(g, apsp, scheme5.Params{Eps: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ov := live.NewOverlay(g)
	r, err := live.NewRouter(s, ov, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.NewNetwork(s)
	for _, p := range testutil.Pairs(g.N(), 2, 3) {
		res := r.Route(p[0], p[1])
		ref, err := nw.Route(p[0], p[1])
		if err != nil || res.Err != nil {
			t.Fatalf("route %v: %v / %v", p, err, res.Err)
		}
		if res.Stale() {
			t.Fatalf("clean overlay produced a stale route: %+v", res)
		}
		if res.Hops != ref.Hops || res.Weight != ref.Weight || res.HeaderWords != ref.HeaderWords {
			t.Fatalf("pair %v: router (%d, %v, %d) != simnet (%d, %v, %d)",
				p, res.Hops, res.Weight, res.HeaderWords, ref.Hops, ref.Weight, ref.HeaderWords)
		}
	}
}

// TestRouterFallbackOnExhaustedBudget: with a detour budget of 1 the local
// search cannot bypass anything, so dead-edge hits must fall back to the
// exact search and still deliver.
func TestRouterFallbackOnExhaustedBudget(t *testing.T) {
	g := testutil.MustGNM(t, 80, 240, 11, gen.UniformInt)
	s, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	ov := live.NewOverlay(g)
	for _, up := range live.DeletionTrace(g, 0.15, 4) {
		mustApply(t, ov, up)
	}
	r, err := live.NewRouter(s, ov, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist := materializedDist(t, ov)
	sawFallback := false
	for _, p := range testutil.Pairs(g.N(), 2, 5) {
		res := r.Route(p[0], p[1])
		if res.Err != nil {
			t.Fatalf("route %v: %v", p, res.Err)
		}
		if res.Fallback {
			sawFallback = true
		}
		if d := dist.Dist(p[0], p[1]); res.Weight < d-1e-9 {
			t.Fatalf("route %v weight %v beats distance %v", p, res.Weight, d)
		}
	}
	if !sawFallback {
		t.Fatal("budget 1 with 15% deletions should have forced a fallback")
	}
}

// TestRebasePreservesEffectiveGraph: rebasing onto the materialized graph
// must prune the overlay to empty when no updates raced the rebuild, and
// must keep the effective graph identical when they did.
func TestRebasePreservesEffectiveGraph(t *testing.T) {
	g := testutil.MustGNM(t, 50, 150, 21, gen.UniformInt)
	ov := live.NewOverlay(g)
	trace := live.ChurnTrace(g, 25, 8, 8)
	for _, up := range trace {
		mustApply(t, ov, up)
	}
	mat, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	fpBefore := mat.Fingerprint()
	if err := ov.Rebase(mat); err != nil {
		t.Fatal(err)
	}
	if !ov.Empty() {
		t.Fatalf("rebase without racing updates left %d entries", ov.Len())
	}
	if ov.Base() != mat {
		t.Fatal("rebase did not install the new base")
	}
	// Now updates race a second rebuild: apply churn after materializing.
	trace2 := live.ChurnTrace(mat, 15, 77, 8)
	half := len(trace2) / 2
	for _, up := range trace2[:half] {
		mustApply(t, ov, up)
	}
	mat2, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range trace2[half:] {
		mustApply(t, ov, up)
	}
	effBefore, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.Rebase(mat2); err != nil {
		t.Fatal(err)
	}
	effAfter, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if effBefore.Fingerprint() != effAfter.Fingerprint() {
		t.Fatal("rebase changed the effective graph")
	}
	_ = fpBefore
}

// TestOverlayWireRoundTrip: the journal section round-trips entries and
// version exactly.
func TestOverlayWireRoundTrip(t *testing.T) {
	g := testutil.MustGNM(t, 40, 120, 13, gen.UniformInt)
	ov := live.NewOverlay(g)
	for _, up := range live.ChurnTrace(g, 20, 5, 8) {
		mustApply(t, ov, up)
	}
	snap := wire.New("test/overlay", g.Fingerprint())
	wire.EncodeGraph(snap, g)
	live.EncodeOverlay(snap, ov)
	if !live.HasOverlay(snap) {
		t.Fatal("HasOverlay = false after encode")
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := wire.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := live.DecodeOverlay(parsed, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != ov.Version() {
		t.Fatalf("version %d != %d", got.Version(), ov.Version())
	}
	a, b := ov.Entries(), got.Entries()
	if len(a) != len(b) {
		t.Fatalf("entry count %d != %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: %+v != %+v", i, b[i], a[i])
		}
	}
	matA, _ := ov.Materialize()
	matB, _ := got.Materialize()
	if matA.Fingerprint() != matB.Fingerprint() {
		t.Fatal("restored overlay materializes differently")
	}
}

// TestDeletionTraceDeterministicAndConnected: same seed, same trace; the
// effective graph stays connected throughout.
func TestDeletionTraceDeterministicAndConnected(t *testing.T) {
	g := testutil.MustGNM(t, 100, 300, 17, gen.Unit)
	t1 := live.DeletionTrace(g, 0.1, 123)
	t2 := live.DeletionTrace(g, 0.1, 123)
	if len(t1) == 0 || len(t1) != len(t2) {
		t.Fatalf("trace lengths %d / %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %v != %v", i, t1[i], t2[i])
		}
	}
	ov := live.NewOverlay(g)
	for _, up := range t1 {
		mustApply(t, ov, up)
		if !ov.Connected() {
			t.Fatalf("trace disconnected the graph at %v", up)
		}
	}
	want := int(0.1*float64(g.M()) + 0.5)
	if len(t1) != want {
		t.Fatalf("trace deleted %d edges, want %d", len(t1), want)
	}
}

// TestOverlayConcurrentReadsAndWrites exercises the overlay under the race
// detector: concurrent updates, effective searches and materializations.
func TestOverlayConcurrentReadsAndWrites(t *testing.T) {
	g := testutil.MustGNM(t, 60, 180, 19, gen.UniformInt)
	ov := live.NewOverlay(g)
	trace := live.ChurnTrace(g, 60, 3, 8)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, up := range trace {
			_ = ov.Apply(up)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = ov.BoundedBidiDist(graph.Vertex(i%g.N()), graph.Vertex((i*7)%g.N()), graph.Infinity)
			_ = ov.Breakdown()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := ov.Materialize(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
