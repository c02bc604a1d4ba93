package live

import (
	"compactroute/internal/graph"
)

// BoundedBidiDist is the overlay-aware twin of graph.BoundedBidiDist: the
// exact shortest-path distance from src to dst over the *effective* graph
// (base + overlay) when it is at most bound, Infinity otherwise. It holds
// the overlay's read lock for the whole run - one consistent effective graph
// even while updates land concurrently - and relaxes through the merged
// neighbor view, so its distances coincide bit-for-bit with
// graph.ShortestPaths over Overlay.Materialize() (the same integer-weight
// exactness argument as the base kernel; reweights keep weights integral).
// It is the one source of true distances for serving: Verify, the live
// auditor and routeserve's dist command all read it.
func (ov *Overlay) BoundedBidiDist(src, dst graph.Vertex, bound float64) float64 {
	if src == dst {
		return 0
	}
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	fw := ov.base.AcquireWorkspace()
	bw := ov.base.AcquireWorkspace()
	defer ov.base.ReleaseWorkspace(fw)
	defer ov.base.ReleaseWorkspace(bw)
	if m := ov.bidi(fw, bw, src, dst, bound); m.best <= bound {
		return m.best
	}
	return graph.Infinity
}

// shortestPath is the router's exact fallback: the hop count and weight of
// a shortest effective path from src to dst (src != dst), found by the same
// search as BoundedBidiDist with no bound. Both come from walking the two
// searches' parent chains out of the meeting edge, with no path slice. The
// weight is the path's current edge weights summed in travel order, as a
// packet crossing it adds them: the forward label of the meeting edge's
// tail is exactly that prefix sum (Dijkstra accumulates from src), and the
// backward chain runs in travel order. On the integer weights of this
// repository the sum equals the effective distance. ok is false when dst is
// unreachable.
func (ov *Overlay) shortestPath(src, dst graph.Vertex) (hops int, w float64, ok bool) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	fw := ov.base.AcquireWorkspace()
	bw := ov.base.AcquireWorkspace()
	defer ov.base.ReleaseWorkspace(fw)
	defer ov.base.ReleaseWorkspace(bw)
	m := ov.bidi(fw, bw, src, dst, graph.Infinity)
	if m.f == graph.NoVertex {
		return 0, 0, false
	}
	w, _ = fw.Dist(m.f)
	w += m.w
	hops = chainHops(fw, m.f) + 1
	for x := m.b; x != dst; hops++ {
		p := bw.Parent(x)
		ew, _ := ov.edgeStateLocked(x, p)
		w += ew
		x = p
	}
	return hops, w, true
}

// meeting is the shortest src-dst connection a bidirectional search has
// seen: its length best, through the edge {f, b} of current weight w, where
// f carries a forward label and b a backward one.
type meeting struct {
	best float64
	f, b graph.Vertex
	w    float64
}

// bidi runs Dijkstra from src in fw and from dst in bw, always expanding the
// side with the smaller frontier key, until the frontiers prove the best
// meeting shortest or show the distance exceeds bound (graph.BoundedBidiDist
// documents the termination rule). Must be called with ov.mu read-held.
//
// The meeting's parent chains stay valid after the loop: every vertex on
// them is settled except possibly f or b itself, and a later improvement of
// that one label would have lowered best and moved the meeting.
func (ov *Overlay) bidi(fw, bw *graph.Workspace, src, dst graph.Vertex, bound float64) meeting {
	fw.Start(src)
	bw.Start(dst)
	m := meeting{best: graph.Infinity, f: graph.NoVertex, b: graph.NoVertex}
	for {
		_, fd, fok := fw.Peek()
		_, bd, bok := bw.Peek()
		if !fok && !bok {
			break
		}
		if sum := fd + bd; sum >= m.best || sum > bound {
			break
		}
		if fd <= bd {
			ov.bidiExpand(fw, bw, &m, true)
		} else {
			ov.bidiExpand(bw, fw, &m, false)
		}
	}
	return m
}

// bidiExpand settles the next vertex of ws and relaxes its alive effective
// edges, recording any meeting with the opposite search that lowers
// m.best. forward says whether ws is the search from src. Must be called
// with ov.mu read-held.
func (ov *Overlay) bidiExpand(ws, other *graph.Workspace, m *meeting, forward bool) {
	u, d, ok := ws.Pop()
	if !ok {
		return
	}
	ov.neighborsLocked(u, func(v graph.Vertex, w float64) bool {
		nd := d + w
		if od, labeled := other.Dist(v); labeled {
			if c := nd + od; c < m.best {
				m.best, m.w = c, w
				if forward {
					m.f, m.b = u, v
				} else {
					m.f, m.b = v, u
				}
			}
		}
		ws.Relax(v, nd, u)
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
