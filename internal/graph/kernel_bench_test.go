package graph_test

// Kernel benchmarks for the three searches every preprocessing phase bottoms
// out in (E12 of EXPERIMENTS.md): full single-source shortest paths, the
// truncated Nearest search behind the vicinities B(u, l), and the on-demand
// row fill of LazyAPSP - plus the carry of a warm LazyAPSP across an edge
// update that replaces a refill under churn (E23). Run with -benchmem: the CSR + pooled-workspace core
// is held to ~0 steady-state allocations beyond the slices each call returns.

import (
	"fmt"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
)

func benchKernelGraph(b *testing.B, n int, weighted bool) *graph.Graph {
	b.Helper()
	wt := gen.Unit
	maxW := 0
	if weighted {
		wt = gen.UniformInt
		maxW = 32
	}
	g, err := gen.ConnectedGNM(gen.Config{N: n, Seed: 2015, Weighting: wt, MaxWeight: maxW}, 4*n)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkShortestPaths measures one full single-source search (BFS on the
// unit graph, Dijkstra on the weighted one), the kernel behind AllPairs,
// LazyAPSP rows and every landmark tree.
func BenchmarkShortestPaths(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := "unit"
		if weighted {
			name = "weighted"
		}
		b.Run(fmt.Sprintf("%s/n=4096", name), func(b *testing.B) {
			g := benchKernelGraph(b, 4096, weighted)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := g.ShortestPaths(graph.Vertex(i % g.N()))
				if s.Dist[s.Source] != 0 {
					b.Fatal("bad search")
				}
			}
		})
	}
}

// BenchmarkNearest measures the truncated search that dominates vicinity
// construction (B(u, l) for every u with l ~ q log n).
func BenchmarkNearest(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := "unit"
		if weighted {
			name = "weighted"
		}
		for _, k := range []int{64, 512} {
			b.Run(fmt.Sprintf("%s/n=4096/k=%d", name, k), func(b *testing.B) {
				g := benchKernelGraph(b, 4096, weighted)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := g.Nearest(graph.Vertex(i%g.N()), k)
					if len(out) < k {
						b.Fatal("short result")
					}
				}
			})
		}
	}
}

// BenchmarkVerifyKernels compares the two ways a delivered route's true
// distance can be proved (E19 of EXPERIMENTS.md): the PathSource row fill
// behind the synchronous Verify default - one full single-source search per
// uncached source - against the bounded bidirectional kernel the route
// auditor uses, searching with the routed weight (modelled here as 1.5x the
// true distance, a typical stretch slack) as its bound. Sources rotate so
// the single-row cache always misses, like a random serving mix.
func BenchmarkVerifyKernels(b *testing.B) {
	for _, n := range []int{4096, 100000} {
		g := benchKernelGraph(b, n, true)
		const npairs = 64
		type pair struct {
			src, dst graph.Vertex
			bound    float64
		}
		ps := make([]pair, 0, npairs)
		for i := 0; i < npairs; i++ {
			src := graph.Vertex((i * 9973) % g.N())
			dst := graph.Vertex((i*31337 + g.N()/2) % g.N())
			d := g.ShortestPaths(src).Dist[dst]
			ps = append(ps, pair{src, dst, 1.5 * d})
		}
		b.Run(fmt.Sprintf("pathsource/n=%d", n), func(b *testing.B) {
			lazy := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: 1, Shards: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := ps[i%len(ps)]
				if lazy.Row(p.src).Dist(p.dst) > p.bound {
					b.Fatal("bound violated")
				}
			}
		})
		b.Run(fmt.Sprintf("bidi/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := ps[i%len(ps)]
				if g.BoundedBidiDist(p.src, p.dst, p.bound) > p.bound {
					b.Fatal("bound violated")
				}
			}
		})
	}
}

// BenchmarkLazyRowFill measures one uncached LazyAPSP row computation: the
// cache holds a single row per shard, so every rotated source misses and the
// benchmark times the row fill itself (search + result materialization).
func BenchmarkLazyRowFill(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := "unit"
		if weighted {
			name = "weighted"
		}
		b.Run(fmt.Sprintf("%s/n=4096", name), func(b *testing.B) {
			g := benchKernelGraph(b, 4096, weighted)
			lazy := graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: 1, Shards: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := lazy.Row(graph.Vertex(i % g.N()))
				if row.Dist(row.Src) != 0 {
					b.Fatal("bad row")
				}
			}
		})
	}
}

// BenchmarkLazyCarry measures carrying a warm LazyAPSP across one edge update
// (E23 of EXPERIMENTS.md): the full 2,000-row cache of the weighted
// GNM(2000, 8000) graph is carried along the 16 updates of its churn trace,
// one update per op, restarting from the warm cache of the base graph after
// the last one. The fill case is the alternative a repair used to pay: the
// same 2,000 rows filled from scratch on the updated graph. Every updated
// graph is materialized before the timer starts; a patched row allocates
// only its two result slices, so carry allocs/op is about two per patched
// row plus one cache entry per carried row.
func BenchmarkLazyCarry(b *testing.B) {
	g := benchKernelGraph(b, 2000, true)
	trace := live.ChurnTrace(g, 16, 2015, 32)
	ov := live.NewOverlay(g)
	graphs := make([]*graph.Graph, 0, len(trace))
	for _, up := range trace {
		if err := ov.Apply(up); err != nil {
			b.Fatal(err)
		}
		next, err := ov.Materialize()
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, next)
	}
	warm := graph.NewLazyAPSP(g, graph.LazyConfig{})
	for u := 0; u < g.N(); u++ {
		warm.Row(graph.Vertex(u))
	}
	b.Run("carry/n=2000", func(b *testing.B) {
		var patched int64
		cache := warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(graphs)
			if k == 0 {
				cache = warm
			}
			cache = cache.Carry(graphs[k])
			st := cache.Stats()
			if st.CachedRows != g.N() {
				b.Fatalf("update %d: carried %d of %d rows", k, st.CachedRows, g.N())
			}
			patched += st.PatchedRows
		}
		b.ReportMetric(float64(patched)/float64(b.N), "patched-rows/op")
	})
	b.Run("fill/n=2000", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next := graphs[i%len(graphs)]
			cache := graph.NewLazyAPSP(next, graph.LazyConfig{})
			for u := 0; u < next.N(); u++ {
				cache.Row(graph.Vertex(u))
			}
		}
	})
}
