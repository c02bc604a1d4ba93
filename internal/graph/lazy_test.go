package graph_test

import (
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
				MemBudget: 4 * (12*int64(g.N()) + 96),
				Shards:    2,
			})
			if lazy.N() != dense.N() {
				t.Fatalf("N: lazy %d dense %d", lazy.N(), dense.N())
			}
			for u := 0; u < g.N(); u++ {
				lr := lazy.Row(graph.Vertex(u))
				dr := dense.Row(graph.Vertex(u))
				for v := 0; v < g.N(); v++ {
					if lr.Dist[v] != dr.Dist[v] {
						t.Fatalf("Row(%d).Dist[%d]: lazy %v dense %v", u, v, lr.Dist[v], dr.Dist[v])
					}
					if lr.First[v] != dr.First[v] {
						t.Fatalf("Row(%d).First[%d]: lazy %v dense %v", u, v, lr.First[v], dr.First[v])
					}
					if ld, dd := lazy.Dist(graph.Vertex(u), graph.Vertex(v)), dense.Dist(graph.Vertex(u), graph.Vertex(v)); ld != dd {
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
			if st.PeakRows > lazy.CapacityRows() {
				t.Fatalf("peak %d rows exceeds capacity %d", st.PeakRows, lazy.CapacityRows())
			}
			if st.PeakBytes > st.BudgetBytes {
				t.Fatalf("peak %d bytes exceeds budget %d", st.PeakBytes, st.BudgetBytes)
			}
		})
	}
}

// TestLazyAPSPBudgetBound asserts the retained-row count never exceeds the
// configured budget, for a sweep of budgets including degenerate ones.
func TestLazyAPSPBudgetBound(t *testing.T) {
	g := testutil.MustGNM(t, 40, 120, 3, gen.Unit)
	rowBytes := 12*int64(g.N()) + 96
	for _, rows := range []int64{0, 1, 3, 10, 1000} {
		lazy := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: rows * rowBytes, Shards: 4})
		for u := 0; u < g.N(); u++ {
			lazy.Row(graph.Vertex(u))
		}
		st := lazy.Stats()
		if st.PeakRows > lazy.CapacityRows() {
			t.Fatalf("budget %d rows: peak %d > capacity %d", rows, st.PeakRows, lazy.CapacityRows())
		}
		if st.CachedRows > lazy.CapacityRows() {
			t.Fatalf("budget %d rows: resident %d > capacity %d", rows, st.CachedRows, lazy.CapacityRows())
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
		MemBudget: 6 * (12*int64(g.N()) + 96),
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
