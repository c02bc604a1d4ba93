package live

import (
	"math/rand"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
)

// BenchmarkFallbackKernel measures the exact fallback that finishes a route
// the scheme abandoned on a dead edge, on the graph of the degraded-n5k wire
// workload: weighted GNM(5000, 20000) with weights in [1, 32], seed 2015, 1%
// of its edges deleted by a DeletionTrace. Every op serves the next of a
// fixed set of 512 pairs whose sources are dead-edge endpoints, as every
// dead hit's abandon point is. Run with -benchmem for allocs/op (E20, E26 of
// EXPERIMENTS.md):
//   - bidi: the hop-tracking bidirectional search, which serves
//     a vertex's fallbacks until their settled vertices (settled/op) add up
//     to a tree's;
//   - tree-build: one shortest-path tree of the effective graph;
//   - tree-walk: one fallback read from an already built tree.
func BenchmarkFallbackKernel(b *testing.B) {
	g, err := gen.ConnectedGNM(gen.Config{N: 5000, Seed: 2015, Weighting: gen.UniformInt, MaxWeight: 32}, 20000)
	if err != nil {
		b.Fatal(err)
	}
	ov := NewOverlay(g)
	var ends []graph.Vertex
	for _, up := range DeletionTrace(g, 0.01, 2015) {
		if err := ov.Apply(up); err != nil {
			b.Fatal(err)
		}
		ends = append(ends, up.U, up.V)
	}
	rng := rand.New(rand.NewSource(2015))
	pairs := make([][2]graph.Vertex, 512)
	for i := range pairs {
		u := ends[rng.Intn(len(ends))]
		v := graph.Vertex(rng.Intn(g.N() - 1))
		if v >= u {
			v++
		}
		pairs[i] = [2]graph.Vertex{u, v}
	}
	fallback := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, _, ok := ov.shortestPath(p[0], p[1]); !ok {
				b.Fatalf("pair %v unreachable", p)
			}
		}
	}
	ov.mu.RLock()
	set := ov.treeSetLocked()
	ov.mu.RUnlock()
	b.Run("bidi", func(b *testing.B) {
		ov.SetTreeBudget(0)
		defer ov.SetTreeBudget(maxTreeBytes)
		b.ReportAllocs()
		fallback(b)
		b.StopTimer()
		fw, bw := newHopWorkspace(g.N()), newHopWorkspace(g.N())
		settled := 0
		ov.mu.RLock()
		for _, p := range pairs {
			_, pops := ov.hopBidi(fw, bw, p[0], p[1], graph.Infinity)
			settled += pops
		}
		ov.mu.RUnlock()
		b.ReportMetric(float64(settled)/float64(len(pairs)), "settled/op")
	})
	b.Run("tree-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x := pairs[i%len(pairs)][0]
			set.roots[x].Store(nil)
			ov.buildTree(set, x)
		}
	})
	b.Run("tree-walk", func(b *testing.B) {
		for _, p := range pairs {
			if set.roots[p[0]].Load() == nil {
				ov.buildTree(set, p[0])
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		fallback(b)
	})
}
