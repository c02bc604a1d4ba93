package compactroute_test

import (
	"testing"

	"compactroute"
)

// TestQueryHotPathAllocs pins the serving hot path at zero steady-state
// allocations (the serving counterpart of the search kernels'
// TestSearchKernelAllocsSteadyState): on an empty overlay, once the engine's
// workers have warmed their scratch packets and the result buffer is
// preallocated, neither the batched Query path nor the single-query Route
// path may allocate, for the headline scheme (thm11), the Thorup-Zwick
// baseline and the exact baseline.
func TestQueryHotPathAllocs(t *testing.T) {
	g, err := compactroute.GNM(96, 384, 3, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	builds := []struct {
		name  string
		build func() (compactroute.Scheme, error)
	}{
		{"exact", func() (compactroute.Scheme, error) { return compactroute.NewExact(g) }},
		{"tzroute", func() (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: 3})
		}},
		{"thm11", func() (compactroute.Scheme, error) {
			return compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: 3})
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := compactroute.ServeLive(s, compactroute.LiveServeOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			n := g.N()
			pairs := make([][2]compactroute.Vertex, 256)
			for i := range pairs {
				pairs[i] = [2]compactroute.Vertex{
					compactroute.Vertex((i * 7) % n),
					compactroute.Vertex((i*13 + 1) % n),
				}
			}
			out := make([]compactroute.LiveResult, len(pairs))

			// Warm up: workers allocate their scratch packets (and, for
			// thm11, the retained inter state) on the first batches.
			for i := 0; i < 4; i++ {
				eng.Query(pairs, out)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Query(pairs, out)
			}); allocs != 0 {
				t.Errorf("Query (warm, preallocated out): %v allocs/op, want 0", allocs)
			}
			for i := range out {
				if out[i].Err != nil {
					t.Fatalf("pair %v failed: %v", pairs[i], out[i].Err)
				}
			}

			// The single-query path pools its scratch packets per generation.
			for i := 0; i < 32; i++ {
				eng.Route(pairs[i][0], pairs[i][1])
			}
			i := 0
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
				i++
			}); allocs != 0 {
				t.Errorf("Route (warm): %v allocs/op, want 0", allocs)
			}
		})
	}
}
