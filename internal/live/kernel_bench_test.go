package live

import (
	"math/rand"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
)

// BenchmarkFallbackKernel measures one exact fallback search - the search
// that finishes a route the scheme abandoned on a dead edge - on the graph
// of the degraded-n5k wire workload: weighted GNM(5000, 20000) with weights
// in [1, 32], seed 2015, 1% of its edges deleted by a DeletionTrace. Every
// op searches the next of a fixed set of 512 pairs; run with -benchmem for
// allocs/op (E20 of EXPERIMENTS.md).
func BenchmarkFallbackKernel(b *testing.B) {
	g, err := gen.ConnectedGNM(gen.Config{N: 5000, Seed: 2015, Weighting: gen.UniformInt, MaxWeight: 32}, 20000)
	if err != nil {
		b.Fatal(err)
	}
	ov := NewOverlay(g)
	for _, up := range DeletionTrace(g, 0.01, 2015) {
		if err := ov.Apply(up); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2015))
	pairs := make([][2]graph.Vertex, 512)
	for i := range pairs {
		u := graph.Vertex(rng.Intn(g.N()))
		v := graph.Vertex(rng.Intn(g.N() - 1))
		if v >= u {
			v++
		}
		pairs[i] = [2]graph.Vertex{u, v}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, _, ok := ov.shortestPath(p[0], p[1]); !ok {
			b.Fatalf("pair %v unreachable", p)
		}
	}
}
