package live

import (
	"compactroute/internal/graph"
)

// This file holds the search kernels that run over the *effective* graph
// (base + overlay) without materializing it: the bounded local search that
// detours a packet around a dead edge and the per-query exact search the
// router falls back to (the bidirectional distance kernel is in bidi.go).
// Every search holds the overlay's read lock for its whole run, so it
// observes one consistent effective graph even while updates land
// concurrently, and all of them use the exact tie-break discipline of
// graph.ShortestPaths ((dist, id) finalization order, first labeling wins),
// so their results coincide with searches over Overlay.Materialize().

// detour runs a bounded Dijkstra over the effective graph from src looking
// for target. At most budget vertices are finalized; when target is reached
// within the budget, the effective path src..target (inclusive) and its
// weight are returned. baseOnly restricts the search to base edges (alive
// ones), for executors that can only cross preprocessed ports (netsim).
func (ov *Overlay) detour(src, target graph.Vertex, budget int, baseOnly bool) (path []graph.Vertex, w float64, ok bool) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	ws := ov.base.AcquireWorkspace()
	defer ov.base.ReleaseWorkspace(ws)
	ws.Start(src)
	settled := 0
	for settled < budget {
		u, d, popped := ws.Pop()
		if !popped {
			return nil, 0, false
		}
		if u == target {
			return reconstruct(ws, src, target), d, true
		}
		settled++
		ov.relaxFrom(ws, u, d, baseOnly)
	}
	return nil, 0, false
}

// exact runs a full Dijkstra over the effective graph from src, stopping as
// soon as dst is finalized, and returns the effective path and its weight.
// ok is false when dst is unreachable in the effective graph.
func (ov *Overlay) exact(src, dst graph.Vertex) (path []graph.Vertex, w float64, ok bool) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	ws := ov.base.AcquireWorkspace()
	defer ov.base.ReleaseWorkspace(ws)
	ws.Start(src)
	for {
		u, d, popped := ws.Pop()
		if !popped {
			return nil, 0, false
		}
		if u == dst {
			return reconstruct(ws, src, dst), d, true
		}
		ov.relaxFrom(ws, u, d, false)
	}
}

// relaxFrom relaxes every alive effective edge out of u. Neighbors come in
// ascending id order; Relax only accepts strict improvements, so the first
// labeling at a given distance wins - the canonical tie-break.
func (ov *Overlay) relaxFrom(ws *graph.Workspace, u graph.Vertex, d float64, baseOnly bool) {
	if baseOnly {
		ov.base.Neighbors(u, func(_ graph.Port, v graph.Vertex, w float64) bool {
			if st, touched := ov.states[keyOf(u, v)]; touched {
				if !st.alive {
					return true
				}
				w = st.w
			}
			ws.Relax(v, d+w, u)
			return true
		})
		return
	}
	ov.neighborsLocked(u, func(v graph.Vertex, w float64) bool {
		ws.Relax(v, d+w, u)
		return true
	})
}

// reconstruct walks the workspace parent chain from dst back to src and
// reverses it into a src..dst path.
func reconstruct(ws *graph.Workspace, src, dst graph.Vertex) []graph.Vertex {
	var rev []graph.Vertex
	for x := dst; x != graph.NoVertex; x = ws.Parent(x) {
		rev = append(rev, x)
		if x == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
