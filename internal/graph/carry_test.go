package graph_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"compactroute/internal/graph"
)

// edgeSet is a mutable undirected weighted edge set over n vertices, the
// model the carry tests update and rebuild graphs from.
type edgeSet struct {
	n int
	w map[[2]graph.Vertex]float64
}

func newEdgeSet(n int) *edgeSet {
	return &edgeSet{n: n, w: make(map[[2]graph.Vertex]float64)}
}

func edgeKey(u, v graph.Vertex) [2]graph.Vertex {
	if u > v {
		u, v = v, u
	}
	return [2]graph.Vertex{u, v}
}

func (es *edgeSet) graph(tb testing.TB) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(es.n)
	for e, w := range es.w {
		b.AddEdge(e[0], e[1], w)
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// keys returns the edges in a fixed order, so a seeded pick is reproducible.
func (es *edgeSet) keys() [][2]graph.Vertex {
	ks := make([][2]graph.Vertex, 0, len(es.w))
	for u := 0; u < es.n; u++ {
		for v := u + 1; v < es.n; v++ {
			if k := edgeKey(graph.Vertex(u), graph.Vertex(v)); es.w[k] > 0 {
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// checkCarried requires every row of ps, cached or not, to equal
// ShortestPaths on g in Dist and First, bit for bit; and, when ps then holds
// every row, the rows stored at 16 bits to be exactly those fitsNarrow
// accepts.
func checkCarried(tb testing.TB, ps *graph.LazyAPSP, g *graph.Graph, what string) {
	tb.Helper()
	narrow := 0
	for u := 0; u < g.N(); u++ {
		want := g.ShortestPaths(graph.Vertex(u))
		sameRow(tb, what, ps.Row(graph.Vertex(u)), want)
		if fitsNarrow(want.Dist) {
			narrow++
		}
	}
	if st := ps.Stats(); st.CachedRows == g.N() && st.NarrowRows != narrow {
		tb.Fatalf("%s: %d of %d rows stored narrow, want %d", what, st.NarrowRows, g.N(), narrow)
	}
}

// fitAll is a cache configuration that holds all n rows at any width: two
// shards with room for ceil(n/2) rows each of the widest kind, measured on a
// path over n vertices with fractional weights.
func fitAll(tb testing.TB, n int) graph.LazyConfig {
	tb.Helper()
	es := newEdgeSet(n)
	for u := 1; u < n; u++ {
		es.w[edgeKey(graph.Vertex(u-1), graph.Vertex(u))] = 0.5
	}
	return graph.LazyConfig{MemBudget: int64(n+2) * rowBytes(tb, es.graph(tb), 0), Shards: 2}
}

// warm fills every row of ps, so the next carry has all of them to carry.
func warm(ps *graph.LazyAPSP) {
	for u := 0; u < ps.N(); u++ {
		ps.Row(graph.Vertex(u))
	}
}

// TestLazyCarryMatchesFresh chains eight carries over random updates - delete
// (disconnection allowed), insert, reweight up and down - on random graphs
// under dense integer ties, sparse ties and unit weights, and requires every
// row of every carried cache to match a fresh search on the updated graph.
func TestLazyCarryMatchesFresh(t *testing.T) {
	weightings := []struct {
		name   string
		lo, hi int
	}{
		{"w1-3", 1, 3},
		{"w1-32", 1, 32},
		{"unit", 1, 1},
	}
	for _, wt := range weightings {
		t.Run(wt.name, func(t *testing.T) {
			var shared, patched int64
			for seed := int64(1); seed <= 24; seed++ {
				rng := rand.New(rand.NewSource(seed))
				weight := func() float64 { return float64(wt.lo + rng.Intn(wt.hi-wt.lo+1)) }
				n := 5 + rng.Intn(60)
				es := newEdgeSet(n)
				for m := rng.Intn(4*n + 1); len(es.w) < m && len(es.w) < n*(n-1)/2; {
					u, v := graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n))
					if u != v {
						es.w[edgeKey(u, v)] = weight()
					}
				}
				g := es.graph(t)
				ps := graph.NewLazyAPSP(g, fitAll(t, n))
				warm(ps)
				for step := 0; step < 8; step++ {
					for k := 1 + rng.Intn(4); k > 0; k-- {
						randomUpdate(rng, es, wt.lo, wt.hi)
					}
					prev := g
					g = es.graph(t)
					ps = ps.Carry(g)
					st := ps.Stats()
					shared += st.SharedRows
					patched += st.PatchedRows
					if !prev.Unit() && !g.Unit() && st.SharedRows+st.PatchedRows != int64(n) {
						t.Fatalf("seed %d step %d: carried %d+%d of %d rows on the weighted kernel",
							seed, step, st.SharedRows, st.PatchedRows, n)
					}
					checkCarried(t, ps, g, fmt.Sprintf("seed %d step %d", seed, step))
				}
			}
			if shared == 0 {
				t.Fatal("no row was shared")
			}
			if wt.hi > 1 && patched == 0 {
				t.Fatal("no row was patched")
			}
			if wt.hi == 1 && patched != 0 {
				t.Fatalf("%d rows patched on the BFS kernel", patched)
			}
		})
	}
}

// randomUpdate applies one random update to es: delete an edge, insert a
// non-edge, or move an edge's weight up or down within [lo, hi].
func randomUpdate(rng *rand.Rand, es *edgeSet, lo, hi int) {
	keys := es.keys()
	switch op := rng.Intn(4); {
	case op == 0 && len(keys) > 0:
		delete(es.w, keys[rng.Intn(len(keys))])
	case op >= 2 && len(keys) > 0 && hi > lo:
		k := keys[rng.Intn(len(keys))]
		w := int(es.w[k])
		if op == 2 && w < hi {
			es.w[k] = float64(w + 1 + rng.Intn(hi-w))
		} else if w > lo {
			es.w[k] = float64(lo + rng.Intn(w-lo))
		}
	default:
		u, v := graph.Vertex(rng.Intn(es.n)), graph.Vertex(rng.Intn(es.n))
		if k := edgeKey(u, v); u != v && es.w[k] == 0 {
			es.w[k] = float64(lo + rng.Intn(hi-lo+1))
		}
	}
}

// TestLazyCarryGuards covers what a carry must not carry: rows across a
// kernel switch (unit to weighted and back), rows of another vertex count,
// rows over weights so small that an addition rounds them away, and rows the
// budget evicted - and that every row still comes out right.
func TestLazyCarryGuards(t *testing.T) {
	es := newEdgeSet(12)
	for u := 0; u < 12; u++ {
		es.w[edgeKey(graph.Vertex(u), graph.Vertex((u+1)%12))] = 1
		es.w[edgeKey(graph.Vertex(u), graph.Vertex((u+5)%12))] = 1
	}
	unit := es.graph(t)
	es.w[edgeKey(0, 1)] = 2
	weighted := es.graph(t)

	// Vertex 1 hangs off 3 by an edge the distance sums round away, so 1
	// ties with its parent 3 and sorts first. Deleting {2, 3} moves 3's
	// first hop in some rows, and a patch in (dist, id) order would read
	// 3's entry for 1 before updating it. Without the guard the carry
	// returns a wrong row here.
	tiny := newEdgeSet(6)
	for e, w := range map[[2]graph.Vertex]float64{{2, 4}: 1, {2, 3}: 1, {4, 5}: 1, {3, 5}: 5, {1, 3}: 1e-17} {
		tiny.w[e] = w
	}
	rounded := tiny.graph(t)
	delete(tiny.w, [2]graph.Vertex{2, 3})
	roundedCut := tiny.graph(t)

	cases := []struct {
		name     string
		from, to *graph.Graph
	}{
		{"unit to weighted", unit, weighted},
		{"weighted to unit", weighted, unit},
		{"vertex count", weighted, newEdgeSet(13).graph(t)},
		{"rounding", rounded, roundedCut},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ps := graph.NewLazyAPSP(c.from, fitAll(t, c.from.N()))
			warm(ps)
			next := ps.Carry(c.to)
			if st := next.Stats(); st.CachedRows != 0 || st.SharedRows != 0 || st.PatchedRows != 0 {
				t.Fatalf("carried across the guard: %+v", st)
			}
			checkCarried(t, next, c.to, c.name)
		})
	}

	t.Run("budget", func(t *testing.T) {
		ps := graph.NewLazyAPSP(weighted, graph.LazyConfig{MemBudget: 3 * maxRowBytes(t, weighted), Shards: 3})
		warm(ps)
		held := ps.Stats().CachedRows
		if held != 3 {
			t.Fatalf("a 3-row budget holds %d rows", held)
		}
		es.w[edgeKey(0, 1)] = 3
		es.w[edgeKey(2, 9)] = 1
		g := es.graph(t)
		next := ps.Carry(g)
		st := next.Stats()
		if st.CachedRows != held || st.SharedRows+st.PatchedRows != int64(held) {
			t.Fatalf("carried %+v, want the %d held rows", st, held)
		}
		// warm filled the rows in id order, so the last three are the held ones.
		for u := g.N() - held; u < g.N(); u++ {
			next.Row(graph.Vertex(u))
		}
		if st := next.Stats(); st.Hits != int64(held) || st.Misses != 0 {
			t.Fatalf("reading the held rows: %+v", st)
		}
		checkCarried(t, next, g, "budget")
	})
}

// TestLazyCarryWideningEvictsLRU carries a full cache of 16-bit rows across
// an update that pushes four of them past 65534: the widened rows no longer
// fit the budget, so the carry evicts the least recently used row, keeps the
// rest within the budget, and every row still comes out right.
func TestLazyCarryWideningEvictsLRU(t *testing.T) {
	es := newEdgeSet(6)
	for u := 1; u < 6; u++ {
		es.w[edgeKey(graph.Vertex(u-1), graph.Vertex(u))] = 10000
	}
	g := es.graph(t)
	// One shard with room for exactly the six narrow rows, filled 0 to 5,
	// so row 0 is the least recently used.
	ps := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: 6 * maxRowBytes(t, g), Shards: 1})
	warm(ps)
	if st := ps.Stats(); st.CachedRows != 6 || st.NarrowRows != 6 {
		t.Fatalf("warm cache: %+v", st)
	}
	// Rows 0, 1, 4 and 5 now reach 70000 or more.
	es.w[edgeKey(2, 3)] = 40000
	next := ps.Carry(es.graph(t))
	st := next.Stats()
	if st.PatchedRows != 6 || st.Evictions == 0 || st.CachedBytes > st.BudgetBytes || st.PeakBytes > st.BudgetBytes {
		t.Fatalf("carry across the widening: %+v", st)
	}
	next.Row(5)
	next.Row(0)
	if st := next.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("row 5 should be resident and row 0 evicted: %+v", st)
	}
	checkCarried(t, next, es.graph(t), "widening")
}

// TestLazyCarryConcurrentReaders carries a cache while other goroutines keep
// reading (and refilling) rows of it, the way a generation's cache can still
// be read while the next one is carried from it; run under -race.
func TestLazyCarryConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := newEdgeSet(40)
	for len(es.w) < 120 {
		if u, v := graph.Vertex(rng.Intn(40)), graph.Vertex(rng.Intn(40)); u != v {
			es.w[edgeKey(u, v)] = float64(1 + rng.Intn(3))
		}
	}
	g := es.graph(t)
	ps := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: 24 * maxRowBytes(t, g), Shards: 4})
	warm(ps)
	for k := 0; k < 6; k++ {
		randomUpdate(rng, es, 1, 3)
	}
	next := es.graph(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ps.Row(graph.Vertex((i*7 + w*13) % g.N()))
			}
		}(w)
	}
	var carried []*graph.LazyAPSP
	for i := 0; i < 8; i++ {
		carried = append(carried, ps.Carry(next))
	}
	close(done)
	wg.Wait()
	for i, c := range carried {
		checkCarried(t, c, next, fmt.Sprintf("carry %d", i))
	}
}

// FuzzLazyCarry decodes a graph and a chain of update batches from the input
// and holds every carried cache to the same oracle as
// TestLazyCarryMatchesFresh. Byte 0 sets n, byte 1 the weights (unit, 1-3,
// 1-32, 1-2, which can flip the search kernel, quarters from 0.25 to 2,
// whose rows are mostly float64, or multiples of 4099 up to 65584, whose
// path sums pass the 16-bit limit of 65534 - so updates move rows across the
// width boundary both ways), byte 2 the number of initial edges; then every
// 3 bytes (u, v, c) insert {u, v}, or, after the initial edges, toggle it:
// insert, reweight to the weight c encodes, or delete when c encodes its
// current weight. c's top bit ends a batch; a batch holds at most 4 updates
// and a run at most 8 batches.
func FuzzLazyCarry(f *testing.F) {
	f.Add([]byte{9, 1, 12, 0, 1, 2, 1, 2, 1, 2, 3, 3, 3, 4, 1, 4, 5, 2, 5, 6, 3, 6, 7, 1, 7, 8, 2, 8, 0, 1, 0, 4, 2, 2, 6, 1, 1, 5, 3,
		0, 1, 0x80, 2, 6, 0x81, 3, 7, 1, 1, 2, 0x82})
	f.Add([]byte{16, 2, 30, 0, 1, 5, 1, 2, 9, 2, 3, 30, 3, 4, 2, 4, 5, 7, 5, 6, 1, 6, 7, 3, 7, 8, 4, 8, 9, 11, 9, 10, 2,
		10, 11, 8, 11, 12, 6, 12, 13, 5, 13, 14, 9, 14, 15, 1, 15, 0, 3, 0, 8, 12, 4, 12, 2, 2, 10, 7,
		3, 4, 0x80, 0, 8, 0x83, 5, 9, 2, 6, 7, 0x90, 1, 9, 4, 11, 3, 0x85})
	f.Add([]byte{12, 0, 14, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 7, 0, 7, 8, 0, 8, 9, 0, 9, 10, 0,
		10, 11, 0, 11, 0, 0, 0, 6, 0, 3, 9, 0, 0, 6, 0x80, 2, 8, 0x80, 5, 6, 0x80})
	f.Add([]byte{10, 3, 15, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 4, 1, 4, 5, 0, 5, 6, 0, 6, 7, 1, 7, 8, 0, 8, 9, 0, 9, 0, 1,
		0, 5, 0, 2, 7, 1, 1, 6, 0, 3, 8, 0, 4, 9, 1, 1, 2, 0x80, 1, 2, 0x81, 4, 9, 0x80, 0, 5, 0x81})
	// Large weights on the path 0-1-2-3 (8, 7 and 1 times 4099): rows 0 and
	// 3 start past 65534. Raising {1, 2} to 8*4099 widens row 2 too and
	// lowering it narrows it again; 16*4099 on {2, 3} widens every row, and
	// writing it again deletes the edge, which narrows them all.
	f.Add([]byte{2, 4, 3, 0, 1, 7, 1, 2, 6, 2, 3, 0, 1, 2, 0x87, 1, 2, 0x86, 2, 3, 0x8f, 2, 3, 0x8f})
	// Quarter weights on the whole-number path 0-1-2-3-4: moving {1, 2} to
	// 0.25 widens every row, 1 narrows them all again, and inserting {0, 4}
	// at 0.5 widens all but row 2.
	f.Add([]byte{3, 5, 4, 0, 1, 3, 1, 2, 7, 2, 3, 3, 3, 4, 3, 1, 2, 0x80, 1, 2, 0x83, 0, 4, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%31
		kinds := []struct {
			lo, hi int
			scale  float64
		}{{1, 1, 1}, {1, 3, 1}, {1, 32, 1}, {1, 2, 1}, {1, 16, 4099}, {1, 8, 0.25}}
		wk := kinds[int(data[1])%len(kinds)]
		weight := func(c byte) float64 { return wk.scale * float64(wk.lo+int(c&0x7f)%(wk.hi-wk.lo+1)) }
		initial := int(data[2]) % (4*n + 1)
		data = data[3:]
		es := newEdgeSet(n)
		next := func() (u, v graph.Vertex, c byte, ok bool) {
			for len(data) >= 3 {
				u, v, c = graph.Vertex(int(data[0])%n), graph.Vertex(int(data[1])%n), data[2]
				data = data[3:]
				if u != v {
					return u, v, c, true
				}
			}
			return 0, 0, 0, false
		}
		for ; initial > 0; initial-- {
			u, v, c, ok := next()
			if !ok {
				break
			}
			es.w[edgeKey(u, v)] = weight(c)
		}
		g := es.graph(t)
		ps := graph.NewLazyAPSP(g, fitAll(t, n))
		warm(ps)
		for batch := 0; batch < 8; batch++ {
			applied := 0
			for applied < 4 {
				u, v, c, ok := next()
				if !ok {
					break
				}
				k, w := edgeKey(u, v), weight(c)
				switch cur := es.w[k]; {
				case cur == 0 || cur != w:
					es.w[k] = w
				default:
					delete(es.w, k)
				}
				applied++
				if c&0x80 != 0 {
					break
				}
			}
			if applied == 0 {
				return
			}
			g = es.graph(t)
			ps = ps.Carry(g)
			checkCarried(t, ps, g, fmt.Sprintf("batch %d", batch))
		}
	})
}
