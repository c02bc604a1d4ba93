package live_test

import (
	"fmt"
	"math"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/testutil"
)

// TestOverlayBoundedBidiMatchesMaterialized is the overlay-patched half of
// the kernel-equivalence property: after a burst of churn, the overlay's
// bounded bidirectional distance must be bit-identical (==, no epsilon) to a
// forward ShortestPaths run over the materialized effective graph, for both
// weighted and unit bases and two churn seeds. The router's fallback runs the
// same search, so every checked pair also pins it: its weight equals the
// distance, its hops are the length of a real path alive in the materialized
// graph whose weights sum to that distance, and an unreachable pair (one
// vertex is cut off after the churn) reports not-ok. The checks repeat on an
// overlay rebuilt with RestoreEntries and after a Rebase onto the
// materialized graph, so every writer of the touch index is covered.
func TestOverlayBoundedBidiMatchesMaterialized(t *testing.T) {
	for _, wt := range []gen.Weighting{gen.Unit, gen.UniformInt} {
		for _, seed := range []int64{7, 1001} {
			g := testutil.MustGNM(t, 80, 240, seed, wt)
			ov := live.NewOverlay(g)
			for _, up := range live.ChurnTrace(g, 50, seed+13, 16) {
				mustApply(t, ov, up)
			}
			if ov.Empty() {
				t.Fatalf("wt=%v seed=%d: churn left the overlay empty", wt, seed)
			}
			const cut = 5
			var cuts []live.Update
			ov.Neighbors(cut, func(v graph.Vertex, _ float64) bool {
				cuts = append(cuts, live.DelEdge(cut, v))
				return true
			})
			mustApply(t, ov, cuts...)
			mat, err := ov.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("wt=%v seed=%d", wt, seed)
			checkOverlayKernels(t, name, ov, mat)

			restored := live.NewOverlay(g)
			if err := restored.RestoreEntries(ov.Entries(), ov.Version()); err != nil {
				t.Fatal(err)
			}
			checkOverlayKernels(t, name+" restored", restored, mat)

			if err := ov.Rebase(mat); err != nil {
				t.Fatal(err)
			}
			checkOverlayKernels(t, name+" rebased", ov, mat)
		}
	}
}

// checkOverlayKernels checks the overlay's touch index, its bidirectional
// distance and its fallback search against forward searches over mat, the
// materialized effective graph.
func checkOverlayKernels(t *testing.T, name string, ov *live.Overlay, mat *graph.Graph) {
	t.Helper()
	if err := ov.CheckTouchIndex(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := graph.Vertex(mat.N())
	unreachable := 0
	for src := graph.Vertex(0); src < n; src += 11 {
		sp := mat.ShortestPaths(src)
		for dst := graph.Vertex(0); dst < n; dst++ {
			want := sp.Dist[dst]
			got := ov.BoundedBidiDist(src, dst, graph.Infinity)
			if got != want {
				t.Fatalf("%s (%d,%d): overlay bidi %v != materialized forward %v",
					name, src, dst, got, want)
			}
			if src == dst {
				continue
			}
			path, hops, w, ok := ov.FallbackPath(src, dst)
			if math.IsInf(want, 1) {
				unreachable++
				if ok {
					t.Fatalf("%s (%d,%d): fallback found hops=%d weight=%v on an unreachable pair",
						name, src, dst, hops, w)
				}
				continue
			}
			if !ok || w != want {
				t.Fatalf("%s (%d,%d): fallback weight %v ok=%v, want %v", name, src, dst, w, ok, want)
			}
			if len(path) != hops+1 || path[0] != src || path[hops] != dst {
				t.Fatalf("%s (%d,%d): fallback reported %d hops for path %v", name, src, dst, hops, path)
			}
			sum := 0.0
			for i := 0; i < hops; i++ {
				ew, err := mat.EdgeWeight(path[i], path[i+1])
				if err != nil {
					t.Fatalf("%s (%d,%d): fallback path %v crosses %v", name, src, dst, path, err)
				}
				sum += ew
			}
			if sum != want {
				t.Fatalf("%s (%d,%d): fallback path %v weighs %v, want %v", name, src, dst, path, sum, want)
			}
			if got := ov.BoundedBidiDist(src, dst, want); got != want {
				t.Fatalf("%s (%d,%d): overlay bidi at bound=dist %v != %v", name, src, dst, got, want)
			}
			if got := ov.BoundedBidiDist(src, dst, want-0.5); !math.IsInf(got, 1) {
				t.Fatalf("%s (%d,%d): overlay bidi under bound returned %v, want +Inf",
					name, src, dst, got)
			}
		}
	}
	if unreachable == 0 {
		t.Fatalf("%s: no unreachable pair checked", name)
	}
}

// TestOverlayBoundedBidiZeroAlloc pins the overlay kernel's steady-state
// allocation contract: workspaces come from the base graph's pool and the
// patched edge scan allocates nothing.
func TestOverlayBoundedBidiZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is only meaningful without -race")
	}
	g := testutil.MustGNM(t, 128, 512, 3, gen.UniformInt)
	ov := live.NewOverlay(g)
	for _, up := range live.ChurnTrace(g, 30, 17, 16) {
		mustApply(t, ov, up)
	}
	n := graph.Vertex(g.N())
	for i := 0; i < 64; i++ {
		ov.BoundedBidiDist(graph.Vertex(i)%n, (graph.Vertex(i)*37+5)%n, graph.Infinity)
	}
	var src, dst graph.Vertex
	allocs := testing.AllocsPerRun(200, func() {
		ov.BoundedBidiDist(src%n, (dst+97)%n, graph.Infinity)
		src += 7
		dst += 31
	})
	if allocs != 0 {
		t.Fatalf("overlay BoundedBidiDist allocated %.1f per op in steady state, want 0", allocs)
	}
}
