package graph_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/testutil"
)

// TestDeterminismLazyMatchesDense asserts the full PathSource contract is
// bit-identical between DenseAPSP and LazyAPSP on every pair, with a cache
// budget small enough to force constant evictions.
func TestDeterminismLazyMatchesDense(t *testing.T) {
	tests := []struct {
		name      string
		weighting gen.Weighting
	}{
		{"unit", gen.Unit},
		{"weighted", gen.UniformInt},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := testutil.MustGNM(t, 60, 180, 5, tt.weighting)
			dense := graph.AllPairs(g)
			// Budget of ~4 rows total: every row scan churns the cache.
			lazy := graph.NewLazyAPSP(g, graph.LazyConfig{
				MemBudget: 4 * maxRowBytes(t, g),
				Shards:    2,
			})
			if lazy.N() != dense.N() {
				t.Fatalf("N: lazy %d dense %d", lazy.N(), dense.N())
			}
			for u := 0; u < g.N(); u++ {
				lr := lazy.Row(graph.Vertex(u))
				dr := dense.Row(graph.Vertex(u))
				for v := graph.Vertex(0); int(v) < g.N(); v++ {
					if lr.Dist(v) != dr.Dist(v) {
						t.Fatalf("Row(%d).Dist(%d): lazy %v dense %v", u, v, lr.Dist(v), dr.Dist(v))
					}
					if lr.First(v) != dr.First(v) {
						t.Fatalf("Row(%d).First(%d): lazy %v dense %v", u, v, lr.First(v), dr.First(v))
					}
					if ld, dd := lazy.Dist(graph.Vertex(u), v), dense.Dist(graph.Vertex(u), v); ld != dd {
						t.Fatalf("Dist(%d,%d): lazy %v dense %v", u, v, ld, dd)
					}
				}
			}
			// Canonical paths agree hop by hop (walks many rows, so this
			// exercises eviction + recomputation).
			for u := 0; u < g.N(); u += 7 {
				for v := 0; v < g.N(); v += 5 {
					lp := lazy.Path(graph.Vertex(u), graph.Vertex(v))
					dp := dense.Path(graph.Vertex(u), graph.Vertex(v))
					if !equalPath(lp, dp) {
						t.Fatalf("Path(%d,%d): lazy %v dense %v", u, v, lp, dp)
					}
				}
			}
			st := lazy.Stats()
			if st.Evictions == 0 {
				t.Fatalf("expected evictions under a 4-row budget, got stats %+v", st)
			}
			if st.PeakBytes > st.BudgetBytes {
				t.Fatalf("peak %d bytes exceeds budget %d", st.PeakBytes, st.BudgetBytes)
			}
		})
	}
}

// rowBytes returns the accounted bytes of the row of src on g - its two
// slices at their stored widths plus its cache entry - measured by filling it
// into a fresh cache.
func rowBytes(tb testing.TB, g *graph.Graph, src graph.Vertex) int64 {
	tb.Helper()
	c := graph.NewLazyAPSP(g, graph.LazyConfig{Shards: 1})
	c.Row(src)
	return c.Stats().CachedBytes
}

// maxRowBytes is the largest rowBytes over the rows of g, so a budget of k
// times it holds any k of them.
func maxRowBytes(tb testing.TB, g *graph.Graph) int64 {
	tb.Helper()
	var mx int64
	for u := 0; u < g.N(); u++ {
		mx = max(mx, rowBytes(tb, g, graph.Vertex(u)))
	}
	return mx
}

// fitsNarrow is the width rule of a LazyAPSP row, stated on the values of a
// search: every finite distance is a whole number at most 65534.
func fitsNarrow(dist []float64) bool {
	for _, d := range dist {
		if !math.IsInf(d, 1) && (d != math.Trunc(d) || d > 65534) {
			return false
		}
	}
	return true
}

// sameRow requires row, read through its accessors, to equal the search sp
// from the same source bit for bit.
func sameRow(tb testing.TB, what string, row graph.Row, sp *graph.SSSP) {
	tb.Helper()
	for v := range sp.Dist {
		got, want := row.Dist(graph.Vertex(v)), sp.Dist[v]
		if math.Float64bits(got) != math.Float64bits(want) || row.First(graph.Vertex(v)) != sp.First[v] {
			tb.Fatalf("%s: row %d entry %d: (%v, %d) want (%v, %d)",
				what, row.Src, v, got, row.First(graph.Vertex(v)), want, sp.First[v])
		}
	}
}

// TestDeterminismLazyRowWidths holds narrow and wide LazyAPSP rows to
// ShortestPaths and DenseAPSP bit for bit on inputs that pick every width:
// small integral distances (16-bit), fractional weights and path sums past
// 65534 (float64), a disconnected graph (the 16-bit +Inf sentinel), and a
// path of n > 65535 (int32 first hops; too large for DenseAPSP, so held to
// ShortestPaths alone). A resident row is narrow exactly when fitsNarrow
// says so, and the cache stays within its budget while it evicts rows of
// both widths.
func TestDeterminismLazyRowWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fractional := newEdgeSet(60)
	for len(fractional.w) < 150 {
		if u, v := graph.Vertex(rng.Intn(60)), graph.Vertex(rng.Intn(60)); u != v {
			fractional.w[edgeKey(u, v)] = float64(1+rng.Intn(64)) / 8
		}
	}
	disconnected := newEdgeSet(50)
	for len(disconnected.w) < 100 {
		// Two components, {0..29} and {30..49}, with some isolated vertices.
		u, v := rng.Intn(28), rng.Intn(28)
		if rng.Intn(2) == 0 {
			u, v = 30+rng.Intn(18), 30+rng.Intn(18)
		}
		if u != v {
			disconnected.w[edgeKey(graph.Vertex(u), graph.Vertex(v))] = float64(1 + rng.Intn(32))
		}
	}
	large, err := gen.ConnectedGNM(gen.Config{N: 60, Seed: 11, Weighting: gen.UniformInt, MaxWeight: 30000}, 90)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		g            *graph.Graph
		narrow, wide bool // the input must hold rows of this width
	}{
		{"integral", testutil.MustGNM(t, 60, 180, 5, gen.UniformInt), true, false},
		{"fractional", fractional.graph(t), false, true},
		{"large", large, true, true},
		{"disconnected", disconnected.graph(t), true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, n := c.g, c.g.N()
			dense := graph.AllPairs(g)
			all := graph.NewLazyAPSP(g, graph.LazyConfig{Shards: 2})
			wantNarrow := 0
			for u := graph.Vertex(0); int(u) < n; u++ {
				sp := g.ShortestPaths(u)
				sameRow(t, "lazy", all.Row(u), sp)
				sameRow(t, "dense", dense.Row(u), sp)
				if fitsNarrow(sp.Dist) {
					wantNarrow++
				}
			}
			if (c.narrow && wantNarrow == 0) || (c.wide && wantNarrow == n) {
				t.Fatalf("%d of %d rows fit 16 bits: the input misses a width", wantNarrow, n)
			}
			if st := all.Stats(); st.CachedRows != n || st.NarrowRows != wantNarrow {
				t.Fatalf("%d resident rows, %d narrow; want %d and %d", st.CachedRows, st.NarrowRows, n, wantNarrow)
			}

			// Rows of both widths through a cache that keeps about five.
			small := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: 5 * maxRowBytes(t, g), Shards: 2})
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < n; i++ {
					u := graph.Vertex((i*7 + pass*13) % n)
					sameRow(t, "small cache", small.Row(u), g.ShortestPaths(u))
				}
			}
			st := small.Stats()
			if st.Evictions == 0 || st.PeakBytes > st.BudgetBytes || st.CachedBytes > st.PeakBytes {
				t.Fatalf("small cache: %+v", st)
			}
		})
	}

	t.Run("n>65535", func(t *testing.T) {
		const n = 1<<16 + 1
		g := testutil.MustPath(t, n, nil)
		lazy := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: 1, Shards: 1})
		// The end rows reach 65536 (float64 distances), the middle one
		// stays within 16 bits; the cache keeps the last row read.
		for _, c := range []struct {
			u      graph.Vertex
			narrow int
		}{{0, 0}, {n / 2, 1}, {n - 1, 0}} {
			sameRow(t, "path", lazy.Row(c.u), g.ShortestPaths(c.u))
			if st := lazy.Stats(); st.CachedRows != 1 || st.NarrowRows != c.narrow {
				t.Fatalf("row %d: %+v, want %d narrow", c.u, st, c.narrow)
			}
		}
	})
}

// TestLazyAPSPBudgetBound asserts the retained rows never exceed the
// configured budget, for a sweep of budgets including degenerate ones: below
// one row per shard, each shard still keeps one.
func TestLazyAPSPBudgetBound(t *testing.T) {
	g := testutil.MustGNM(t, 40, 120, 3, gen.Unit)
	const shards = 4
	row := maxRowBytes(t, g)
	for _, rows := range []int64{0, 1, 3, 10, 1000} {
		lazy := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: rows * row, Shards: shards})
		for u := 0; u < g.N(); u++ {
			lazy.Row(graph.Vertex(u))
		}
		st := lazy.Stats()
		if limit := max(st.BudgetBytes, shards*row); st.PeakBytes > limit || st.CachedBytes > st.PeakBytes {
			t.Fatalf("budget %d rows: peak %d, resident %d bytes, limit %d", rows, st.PeakBytes, st.CachedBytes, limit)
		}
		if limit := max(shards, int(st.BudgetBytes/row)); st.PeakRows > limit || st.CachedRows > st.PeakRows {
			t.Fatalf("budget %d rows: peak %d, resident %d rows, limit %d", rows, st.PeakRows, st.CachedRows, limit)
		}
		if st.Misses != int64(g.N()) && rows >= int64(g.N()) {
			t.Fatalf("budget above n rows should compute each row once, got %d misses", st.Misses)
		}
	}
}

// TestLazyAPSPConcurrent hammers one LazyAPSP from many goroutines (run under
// -race by the CI determinism step) and checks every answer against the dense
// matrix.
func TestLazyAPSPConcurrent(t *testing.T) {
	g := testutil.MustGNM(t, 50, 150, 9, gen.UniformInt)
	dense := graph.AllPairs(g)
	lazy := graph.NewLazyAPSP(g, graph.LazyConfig{
		MemBudget: 6 * maxRowBytes(t, g),
		Shards:    3,
	})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := graph.Vertex((i*7 + w*13) % g.N())
				v := graph.Vertex((i*3 + w*5) % g.N())
				if lazy.Dist(u, v) != dense.Dist(u, v) || lazy.First(u, v) != dense.First(u, v) {
					select {
					case errs <- "lazy answer diverged from dense under concurrency":
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestLazyAPSPMissesCountInsertedRows races 8 goroutines, released
// together, on the first Row call for one source of a fresh cache: however
// many of them compute the row, one copy is inserted and Misses reads 1.
func TestLazyAPSPMissesCountInsertedRows(t *testing.T) {
	g := testutil.MustGNM(t, 400, 1600, 13, gen.UniformInt)
	const workers = 8
	for round := 0; round < 200; round++ {
		lazy := graph.NewLazyAPSP(g, graph.LazyConfig{})
		src := graph.Vertex(round % g.N())
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				lazy.Row(src)
			}()
		}
		close(start)
		wg.Wait()
		if st := lazy.Stats(); st.Misses != 1 || st.CachedRows != 1 {
			t.Fatalf("round %d: %d goroutines filled one row: Misses = %d, CachedRows = %d, want 1 and 1",
				round, workers, st.Misses, st.CachedRows)
		}
	}
}

// TestEccentricityHelpersMatchDense pins the parallel eccentricity and
// normalized-diameter reductions against the sequential definitions.
func TestEccentricityHelpersMatchDense(t *testing.T) {
	g := testutil.MustGNM(t, 45, 135, 21, gen.UniformInt)
	dense := graph.AllPairs(g)
	lazy := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: 1, Shards: 1})
	eccs := graph.Eccentricities(dense)
	for u := 0; u < g.N(); u++ {
		var want float64
		for v := 0; v < g.N(); v++ {
			if d := dense.Dist(graph.Vertex(u), graph.Vertex(v)); d > want {
				want = d // connected GNM: all distances finite
			}
		}
		if eccs[u] != want {
			t.Fatalf("Eccentricities[%d] = %v want %v", u, eccs[u], want)
		}
		if got := dense.Eccentricity(graph.Vertex(u)); got != want {
			t.Fatalf("Eccentricity(%d) = %v want %v", u, got, want)
		}
		if got := graph.EccentricityOf(lazy, graph.Vertex(u)); got != want {
			t.Fatalf("EccentricityOf(lazy, %d) = %v want %v", u, got, want)
		}
	}
	var maxD float64
	minD := graph.Infinity
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			d := dense.Dist(graph.Vertex(u), graph.Vertex(v))
			if d > maxD {
				maxD = d
			}
			if d < minD {
				minD = d
			}
		}
	}
	want := maxD / minD
	if got := dense.NormalizedDiameter(); got != want {
		t.Fatalf("NormalizedDiameter = %v want %v", got, want)
	}
	if got := graph.NormalizedDiameterOf(lazy); got != want {
		t.Fatalf("NormalizedDiameterOf(lazy) = %v want %v", got, want)
	}
}
