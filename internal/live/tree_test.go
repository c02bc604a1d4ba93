package live_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/testutil"
)

// touchedVertices returns the endpoints of the overlay's entries.
func touchedVertices(ov *live.Overlay) []graph.Vertex {
	seen := make(map[graph.Vertex]bool)
	var out []graph.Vertex
	for _, e := range ov.Entries() {
		for _, x := range []graph.Vertex{e.U, e.V} {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}

// cutVertex deletes every effective edge at x.
func cutVertex(t *testing.T, ov *live.Overlay, x graph.Vertex) {
	t.Helper()
	var cuts []live.Update
	ov.Neighbors(x, func(v graph.Vertex, _ float64) bool {
		cuts = append(cuts, live.DelEdge(x, v))
		return true
	})
	mustApply(t, ov, cuts...)
}

// TestFallbackTreesFollowParentRule: on random overlays (unit and 1-32
// weights; deletions, insertions and reweights; n from 5 to 200, some with
// a vertex cut off), every fallback reports the least (distance, hops) path:
// the effective distance and, among shortest paths, the fewest hops, taken
// from a reference over ShortestPaths(x).Dist of the materialized graph -
// whether the bidirectional search answers it or x's tree does. The tree
// follows the parent rule: parent[x] = x, NoVertex exactly where x cannot
// reach, and elsewhere the neighbor u with d(x,u) + w(u,v) = d(x,v) and
// h(x,u) + 1 = h(x,v) that is least by (d(x,u), u). Only the distances are
// compared: on unit graphs ShortestPaths runs BFS, whose parent ties differ.
func TestFallbackTreesFollowParentRule(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 24; trial++ {
		n := 5 + rng.Intn(196)
		if trial == 0 {
			n = 5
		}
		m := min(3*n, n*(n-1)/2)
		wt, maxW := gen.UniformInt, 32
		if trial%2 == 0 {
			wt, maxW = gen.Unit, 1
		}
		seed := int64(100 + trial)
		g := testutil.MustGNM(t, n, m, seed, wt)
		ov := live.NewOverlay(g)
		mustApply(t, ov, live.ChurnTrace(g, 1+n/4, seed, maxW)...)
		if trial%3 == 0 {
			cutVertex(t, ov, graph.Vertex(rng.Intn(n)))
		}
		mat, err := ov.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial %d (n=%d wt=%v)", trial, n, wt)
		touched := touchedVertices(ov)
		if len(touched) == 0 {
			t.Fatalf("%s: churn left no entry", name)
		}
		for _, x := range touched[:min(len(touched), 12)] {
			dist := mat.ShortestPaths(x).Dist
			hops := leastHops(mat, x, dist)
			ov.SetTreeBudget(0)
			checkFallbacks(t, name+" bidi", ov, mat, x, dist, hops, nil)
			ov.SetTreeBudget(1 << 30)
			parent := ov.FallbackTree(x)
			checkParentRule(t, name, mat, x, dist, hops, parent)
			checkFallbacks(t, name+" tree", ov, mat, x, dist, hops, parent)
		}
	}
}

// leastHops returns, for every vertex v x reaches, the fewest hops of a
// shortest x-v path in g, given dist = ShortestPaths(x).Dist; -1 elsewhere.
func leastHops(g *graph.Graph, x graph.Vertex, dist []float64) []int {
	order := make([]graph.Vertex, 0, g.N())
	hops := make([]int, g.N())
	for v := range hops {
		hops[v] = -1
		if !math.IsInf(dist[v], 1) {
			order = append(order, graph.Vertex(v))
		}
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
	hops[x] = 0
	for _, v := range order {
		g.Neighbors(v, func(_ graph.Port, u graph.Vertex, w float64) bool {
			if dist[u]+w == dist[v] && (hops[v] < 0 || hops[u]+1 < hops[v]) {
				hops[v] = hops[u] + 1
			}
			return true
		})
	}
	return hops
}

func checkParentRule(t *testing.T, name string, mat *graph.Graph, x graph.Vertex, dist []float64, hops []int, parent []graph.Vertex) {
	t.Helper()
	if parent[x] != x {
		t.Fatalf("%s: tree of %d has parent[root] = %d", name, x, parent[x])
	}
	for v := graph.Vertex(0); v < graph.Vertex(mat.N()); v++ {
		if v == x {
			continue
		}
		want := graph.NoVertex
		if !math.IsInf(dist[v], 1) {
			mat.Neighbors(v, func(_ graph.Port, u graph.Vertex, w float64) bool {
				if dist[u]+w == dist[v] && hops[u]+1 == hops[v] && (want == graph.NoVertex || dist[u] < dist[want] || (dist[u] == dist[want] && u < want)) {
					want = u
				}
				return true
			})
		}
		if parent[v] != want {
			t.Fatalf("%s: tree of %d: parent[%d] = %d, want %d (dist %v, hops %d)", name, x, v, parent[v], want, dist[v], hops[v])
		}
	}
}

// checkFallbacks routes a fallback from x to every other vertex and holds
// it to the reference: the least hops among shortest paths and the
// distance, a path of those hops whose edges weigh the distance (on x's
// tree when parent is not nil), and a failure where x cannot reach.
func checkFallbacks(t *testing.T, name string, ov *live.Overlay, mat *graph.Graph, x graph.Vertex, dist []float64, want []int, parent []graph.Vertex) {
	t.Helper()
	for dst := graph.Vertex(0); dst < graph.Vertex(mat.N()); dst++ {
		if dst == x {
			continue
		}
		path, hops, w, ok := ov.FallbackPath(x, dst)
		if math.IsInf(dist[dst], 1) {
			if ok {
				t.Fatalf("%s: fallback %d->%d found hops=%d weight=%v on an unreachable pair", name, x, dst, hops, w)
			}
			continue
		}
		if !ok || hops != want[dst] || len(path) != hops+1 || path[0] != x || path[hops] != dst {
			t.Fatalf("%s: fallback %d->%d reported ok=%v hops=%d (least %d) for path %v", name, x, dst, ok, hops, want[dst], path)
		}
		sum := 0.0
		for i := 0; i < hops; i++ {
			if parent != nil && parent[path[i+1]] != path[i] {
				t.Fatalf("%s: fallback %d->%d path %v leaves the tree at %d", name, x, dst, path, path[i+1])
			}
			ew, err := mat.EdgeWeight(path[i], path[i+1])
			if err != nil {
				t.Fatal(err)
			}
			sum += ew
		}
		if w != sum || w != dist[dst] {
			t.Fatalf("%s: fallback %d->%d weight %v, path sums %v, distance %v", name, x, dst, w, sum, dist[dst])
		}
	}
}

// TestFallbackTreeRent: a vertex's fallbacks run the bidirectional search
// until the vertices they settled add up to the rent - the vertex count, by
// default - and the one fallback that reaches it builds the vertex's tree.
func TestFallbackTreeRent(t *testing.T) {
	g := testutil.MustGNM(t, 150, 450, 5, gen.UniformInt)
	ov := live.NewOverlay(g)
	mustApply(t, ov, live.ChurnTrace(g, 40, 5, 32)...)
	x := touchedVertices(ov)[0]
	for dst := graph.Vertex(0); ov.CachedTrees() == 0; dst++ {
		if dst == x {
			continue
		}
		if int(dst) == g.N() {
			t.Fatalf("%d fallbacks from %d built no tree (rent %d)", g.N()-1, x, ov.FallbackRent(x))
		}
		before := ov.FallbackRent(x)
		ov.FallbackPath(x, dst)
		after := ov.FallbackRent(x)
		if built := ov.CachedTrees() == 1; built != (before < g.N() && after >= g.N()) || after <= before {
			t.Fatalf("fallback %d->%d: rent %d -> %d of %d, tree built = %v", x, dst, before, after, g.N(), built)
		}
	}
	if ov.FallbackTrees() != 1 {
		t.Fatalf("%d trees built, want 1", ov.FallbackTrees())
	}
}

// TestFallbackTreeBudget: with every first fallback due a tree (rent 1),
// a version builds trees only while their bytes fit the budget; every later
// source keeps the bidirectional search, and checkOverlayKernels holds both
// to the materialized graph.
func TestFallbackTreeBudget(t *testing.T) {
	for _, wt := range []gen.Weighting{gen.Unit, gen.UniformInt} {
		for _, trees := range []int{0, 3} {
			g := testutil.MustGNM(t, 80, 240, 7, wt)
			ov := live.NewOverlay(g)
			mustApply(t, ov, live.ChurnTrace(g, 50, 20, 16)...)
			cutVertex(t, ov, 5)
			mat, err := ov.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			ov.SetTreeRent(1)
			ov.SetTreeBudget(trees*4*g.N() + 4*g.N() - 1)
			name := fmt.Sprintf("wt=%v budget=%d trees", wt, trees)
			checkOverlayKernels(t, name, ov, mat)
			if ov.FallbackTrees() != uint64(trees) || ov.CachedTrees() != trees {
				t.Fatalf("%s: built %d trees, %d cached", name, ov.FallbackTrees(), ov.CachedTrees())
			}
		}
	}
}

// touchedAt returns the overlay entries incident to v.
func touchedAt(ov *live.Overlay, v graph.Vertex) []live.Entry {
	var out []live.Entry
	for _, e := range ov.Entries() {
		if e.U == v || e.V == v {
			out = append(out, e)
		}
	}
	return out
}

// TestFallbackTreesConcurrentBuildAndApply races readers whose fallbacks
// build trees (rent 1: the first fallback from a vertex builds, in chunks
// of the read lock) against a writer applying churn (run it under -race).
// A reader that sees the same overlay version before and after a fallback
// must get the effective distance: a tree that survived a mutation, or a
// build that spanned one, would hand out the old graph's path. After every
// mutation the cache holds no tree until a fallback builds one.
func TestFallbackTreesConcurrentBuildAndApply(t *testing.T) {
	g := testutil.MustGNM(t, 400, 1200, 31, gen.UniformInt)
	ov := live.NewOverlay(g)
	ov.SetTreeRent(1)
	trace := live.ChurnTrace(g, 100, 31, 32)
	mustApply(t, ov, trace[:20]...)
	roots := touchedVertices(ov)
	var wg sync.WaitGroup
	var routed atomic.Int64
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := roots[(i+r)%len(roots)]
				dst := graph.Vertex((i*7 + r) % g.N())
				if src == dst {
					continue
				}
				before := ov.Version()
				_, _, w, ok := ov.FallbackPath(src, dst)
				d := ov.BoundedBidiDist(src, dst, graph.Infinity)
				routed.Add(1)
				if ov.Version() != before {
					continue
				}
				if ok != !math.IsInf(d, 1) || (ok && w != d) {
					t.Errorf("version %d: fallback %d->%d weight %v ok=%v, distance %v", before, src, dst, w, ok, d)
					return
				}
			}
		}(r)
	}
	// Each update waits for a few fallbacks, so every version is read.
	for _, up := range trace[20:] {
		for next := routed.Load() + 8; routed.Load() < next && !t.Failed(); {
			runtime.Gosched()
		}
		if err := ov.Apply(up); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if ov.FallbackTrees() == 0 {
		t.Fatal("no fallback built a tree")
	}

	// Sequentially: every kind of mutation drops the trees.
	u := roots[0]
	var v graph.Vertex
	ov.Neighbors(u, func(x graph.Vertex, _ float64) bool { v = x; return false })
	for _, mutate := range []func() error{
		func() error { return ov.Apply(live.DelEdge(u, v)) },
		func() error { return ov.Apply(live.AddEdge(u, v, 3)) },
		func() error { return ov.Apply(live.SetWeight(u, v, 5)) },
		func() error { return ov.Rebase(g) },
	} {
		for _, x := range touchedVertices(ov) {
			ov.FallbackTree(x)
		}
		if ov.CachedTrees() == 0 {
			t.Fatal("no tree cached before the mutation")
		}
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		if held := ov.CachedTrees(); held != 0 {
			t.Fatalf("%d trees survived a mutation", held)
		}
	}
}
