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
// baseline and the exact baseline. The degraded case serves thm11 over a
// deletion overlay, where routes that meet a dead edge fall back to the
// exact search: that path is held to zero allocations too.
func TestQueryHotPathAllocs(t *testing.T) {
	g, err := compactroute.GNM(96, 384, 3, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	thm11 := func() (compactroute.Scheme, error) {
		return compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: 3})
	}
	builds := []struct {
		name     string
		build    func() (compactroute.Scheme, error)
		degraded bool
	}{
		{"exact", func() (compactroute.Scheme, error) { return compactroute.NewExact(g) }, false},
		{"tzroute", func() (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: 3})
		}, false},
		{"thm11", thm11, false},
		{"thm11-degraded", thm11, true},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			if b.degraded && raceEnabled {
				t.Skip("under -race sync.Pool drops the fallback's pooled search workspaces at random; allocs/op is only meaningful without -race")
			}
			s, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := compactroute.ServeLive(s, compactroute.LiveServeOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if b.degraded {
				if err := eng.ApplyUpdates(compactroute.DeletionTrace(g, 0.05, 3)); err != nil {
					t.Fatal(err)
				}
			}

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
			fallbacks := 0
			for i := range out {
				if out[i].Err != nil {
					t.Fatalf("pair %v failed: %v", pairs[i], out[i].Err)
				}
				if out[i].Fallback {
					fallbacks++
				}
			}
			if b.degraded && fallbacks == 0 {
				t.Fatal("no pair fell back to the exact search on the deletion overlay")
			}

			// The single-query path pools its scratch packets per generation.
			// It is measured over every pair, so the degraded case covers its
			// fallbacks.
			for i := 0; i < 32; i++ {
				eng.Route(pairs[i][0], pairs[i][1])
			}
			i := 0
			if allocs := testing.AllocsPerRun(len(pairs), func() {
				eng.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
				i++
			}); allocs != 0 {
				t.Errorf("Route (warm): %v allocs/op, want 0", allocs)
			}
		})
	}
}
