package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// TestWorkspaceEpochWrap drives a workspace's 32-bit epoch across the wrap
// point and checks that labels from the pre-wrap search can never leak into
// a post-wrap one (the wrap clears the stamp array exactly once).
func TestWorkspaceEpochWrap(t *testing.T) {
	ws := newWorkspace(8)
	ws.epoch = ^uint32(0) - 1 // two Resets away from wrapping
	for round := 0; round < 4; round++ {
		ws.Start(3)
		if d, ok := ws.Dist(3); !ok || d != 0 {
			t.Fatalf("round %d: source not labeled after Start", round)
		}
		ws.Relax(5, 2.5, 3)
		for v := Vertex(0); v < 8; v++ {
			d, ok := ws.Dist(v)
			switch v {
			case 3:
				if !ok || d != 0 {
					t.Fatalf("round %d: Dist(3) = %v,%v", round, d, ok)
				}
			case 5:
				if !ok || d != 2.5 {
					t.Fatalf("round %d: Dist(5) = %v,%v", round, d, ok)
				}
			default:
				if ok {
					t.Fatalf("round %d: vertex %d labeled without Relax (stale epoch leak)", round, v)
				}
			}
		}
		if v, d, ok := ws.Pop(); !ok || v != 3 || d != 0 {
			t.Fatalf("round %d: first Pop = (%d,%v,%v), want (3,0,true)", round, v, d, ok)
		}
	}
	// Four Resets from 2^32-2: two pre-wrap epochs, then the wrap restarts
	// the count at 1, and two more Starts land on 3.
	if ws.epoch != 3 {
		t.Fatalf("epoch after wrap = %d, want 3", ws.epoch)
	}
}

// TestHeap4PopsSortedOrder is the determinism property the 4-ary heap swap
// rests on: under the (dist, id) total order, the pop sequence equals the
// sorted order of the pushed multiset, exactly what the binary heap it
// replaced produced.
func TestHeap4PopsSortedOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		var h Heap4
		n := 1 + r.Intn(200)
		type item struct {
			d float64
			v Vertex
		}
		items := make([]item, n)
		for i := range items {
			// Coarse distances force heavy ties; duplicate (d, v) pairs are
			// legal (lazy-deletion searches push them).
			items[i] = item{d: float64(r.Intn(8)), v: Vertex(r.Intn(30))}
			h.Push(items[i].d, items[i].v)
		}
		// Interleave some pops and re-pushes to exercise sift-down states.
		if n > 10 {
			for j := 0; j < 5; j++ {
				d, v := h.Pop()
				h.Push(d, v)
			}
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].d != items[j].d {
				return items[i].d < items[j].d
			}
			return items[i].v < items[j].v
		})
		for i, want := range items {
			d, v := h.Pop()
			if d != want.d || v != want.v {
				t.Fatalf("trial %d: pop %d = (%v,%d), want (%v,%d)", trial, i, d, v, want.d, want.v)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: heap not drained", trial)
		}
	}
}

// TestWorkspacePoolRecycles asserts a released workspace is reused rather
// than reallocated, the property the zero-allocation claims rest on.
func TestWorkspacePoolRecycles(t *testing.T) {
	if raceEnabledInternal {
		t.Skip("sync.Pool randomizes reuse under the race detector")
	}
	b := NewBuilder(4)
	b.AddUnitEdge(0, 1)
	b.AddUnitEdge(1, 2)
	b.AddUnitEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := g.AcquireWorkspace()
	ws.Start(0)
	g.ReleaseWorkspace(ws)
	if got := g.AcquireWorkspace(); got != ws {
		// sync.Pool gives no hard guarantee, but single-goroutine
		// put-then-get returning a different object means the pool wiring
		// is broken (e.g. a fresh workspace per Acquire).
		t.Fatalf("pool returned a different workspace immediately after release")
	}
}
