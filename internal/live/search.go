package live

import (
	"compactroute/internal/graph"
)

// This file holds the bounded local search that detours a packet around a
// dead edge; the bidirectional kernel behind distances and the router's
// exact fallback is in bidi.go. Every search holds the overlay's read lock
// for its whole run, so it observes one consistent effective graph even
// while updates land concurrently. Their distances and path weights
// coincide with searches over Overlay.Materialize(). The detour also keeps
// the tie-break of graph.ShortestPaths ((dist, id) finalization order,
// first labeling wins), so it picks the same path; the bidirectional
// fallback may pick a different one of several tied shortest paths.

// detour runs a bounded Dijkstra over the effective graph from src looking
// for target. At most budget vertices are finalized; when target is reached
// within the budget, it returns the hop count and weight of the effective
// path src..target, and with a non-nil path also stores the path's vertices
// (src..target inclusive) there. baseOnly restricts the search to base
// edges (alive ones), for executors that can only cross preprocessed ports
// (netsim).
func (ov *Overlay) detour(src, target graph.Vertex, budget int, baseOnly bool, path *[]graph.Vertex) (hops int, w float64, ok bool) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	ws := ov.base.AcquireWorkspace()
	defer ov.base.ReleaseWorkspace(ws)
	ws.Start(src)
	settled := 0
	for settled < budget {
		u, d, popped := ws.Pop()
		if !popped {
			return 0, 0, false
		}
		if u == target {
			if path != nil {
				*path = reconstruct(ws, src, target)
			}
			return chainHops(ws, target), d, true
		}
		settled++
		ov.relaxFrom(ws, u, d, baseOnly)
	}
	return 0, 0, false
}

// relaxFrom relaxes every alive effective edge out of u. Neighbors come in
// ascending id order; Relax only accepts strict improvements, so the first
// labeling at a given distance wins - the canonical tie-break.
func (ov *Overlay) relaxFrom(ws *graph.Workspace, u graph.Vertex, d float64, baseOnly bool) {
	if baseOnly && ov.touch[u] != 0 {
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

// chainHops counts the edges on the workspace parent chain from x back to
// the search root.
func chainHops(ws *graph.Workspace, x graph.Vertex) int {
	hops := 0
	for p := ws.Parent(x); p != graph.NoVertex; p = ws.Parent(p) {
		hops++
	}
	return hops
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
