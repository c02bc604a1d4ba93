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
// auditor and routeserve's dist command all read it. It runs the fallback's
// search (hopBidi) and ignores the hops.
func (ov *Overlay) BoundedBidiDist(src, dst graph.Vertex, bound float64) float64 {
	if src == dst {
		return 0
	}
	fw := ov.hopPool.Get().(*hopWorkspace)
	bw := ov.hopPool.Get().(*hopWorkspace)
	defer ov.hopPool.Put(fw)
	defer ov.hopPool.Put(bw)
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	if m, _ := ov.hopBidi(fw, bw, src, dst, bound); m.d <= bound {
		return m.d
	}
	return graph.Infinity
}

// shortestPath is the router's exact fallback: the hop count and weight of
// the least (distance, hops) effective path from src to dst (src != dst) -
// a shortest path, and among those one with the fewest hops; ok is false
// when dst is unreachable. The weight is the path's current edge weights
// summed in travel order, as a packet crossing it adds them; on the integer
// weights of this repository it equals the effective distance.
//
// The path is read from src's shortest-path tree when the overlay's current
// version holds one, and found by a bidirectional search that tracks hops
// (hopBidi) otherwise. Both report the same hops and weight, so the result
// depends on the effective graph, src and dst alone - never on which trees
// are cached, on query order or on worker count. The searches from src pay
// rent (chargeLocked); the one that brings it to a tree's cost builds the
// tree after answering, without holding the read lock throughout
// (buildTree).
func (ov *Overlay) shortestPath(src, dst graph.Vertex) (hops int, w float64, ok bool) {
	ov.mu.RLock()
	set := ov.treeSetLocked()
	if t := set.roots[src].Load(); t != nil {
		hops, w, ok = ov.treePath(t, src, dst)
		ov.mu.RUnlock()
		return hops, w, ok
	}
	fw := ov.hopPool.Get().(*hopWorkspace)
	bw := ov.hopPool.Get().(*hopWorkspace)
	m, pops := ov.hopBidi(fw, bw, src, dst, graph.Infinity)
	if ok = m.f != graph.NoVertex; ok {
		hops, w = ov.hopMeetingPath(fw, bw, m, dst)
	}
	build := ov.chargeLocked(set, src, pops)
	ov.mu.RUnlock()
	ov.hopPool.Put(fw)
	ov.hopPool.Put(bw)
	if build {
		ov.buildTree(set, src)
	}
	return hops, w, ok
}

// hopMeeting is the least (distance, hops) src-dst connection a hopBidi
// search has seen: the edge {f, b} of current weight w, where f carries a
// forward label and b a backward one.
type hopMeeting struct {
	d    float64
	h    int32
	f, b graph.Vertex
	w    float64
}

// hopBidi runs the hop-tracking Dijkstra (hopWorkspace) from src in fw and
// from dst in bw, expanding the side with the smaller frontier distance,
// until the frontier distances sum to the best distance seen or exceed
// bound (graph.BoundedBidiDist documents the termination rule), and keeps
// the least (distance, hops) connection seen. Its distance is the shortest
// one whenever it is at most bound. With an infinite bound that connection
// is a least (distance, hops) path P. At the stop, a vertex of P settled
// on neither side sums to no less than the frontiers, so P's distance
// equals their sum; there is at most one such vertex p, its neighbors on P
// are settled toward their own ends, and all of p's tight predecessors on
// both sides are settled, so p's two labels are final - and each
// improvement of one of them was checked against the other. Otherwise some
// edge of P joins a forward- and a backward-settled vertex, seen when the
// later of the two settled. The meeting's parent chains stay valid after
// the loop: every vertex on them is settled except possibly f or b itself,
// and a later improvement of that one label would have lowered the key
// and moved the meeting. pops counts the vertices both sides settled. Must
// be called with ov.mu read-held.
func (ov *Overlay) hopBidi(fw, bw *hopWorkspace, src, dst graph.Vertex, bound float64) (m hopMeeting, pops int) {
	fw.start(src)
	bw.start(dst)
	m = hopMeeting{d: graph.Infinity, f: graph.NoVertex, b: graph.NoVertex}
	for {
		fd, bd := fw.peek(), bw.peek()
		if sum := fd + bd; sum >= m.d || sum > bound {
			return m, pops
		}
		pops++
		if fd <= bd {
			ov.hopExpand(fw, bw, &m, true)
		} else {
			ov.hopExpand(bw, fw, &m, false)
		}
	}
}

// hopExpand settles the next vertex of ws and offers its alive effective
// edges (hopOffer). At a vertex no entry touches it walks the base
// adjacency directly, with no callback per edge. forward says whether ws is
// the search from src. Must be called with ov.mu read-held.
func (ov *Overlay) hopExpand(ws, other *hopWorkspace, m *hopMeeting, forward bool) {
	u, d, h, _ := ws.pop()
	if ov.touch[u] == 0 {
		to, wt := ov.base.Adjacency(u)
		for i, v := range to {
			m.hopOffer(ws, other, u, v, wt[i], d, h, forward)
		}
		return
	}
	ov.neighborsLocked(u, func(v graph.Vertex, w float64) bool {
		m.hopOffer(ws, other, u, v, w, d, h, forward)
		return true
	})
}

// hopOffer relaxes the edge {u, v} of weight w out of u, just settled in ws
// at distance d and h hops, first recording a meeting with the opposite
// search if the connection lowers m's (distance, hops) key.
func (m *hopMeeting) hopOffer(ws, other *hopWorkspace, u, v graph.Vertex, w, d float64, h int32, forward bool) {
	nd, nh := d+w, h+1
	if od, oh, labeled := other.label(v); labeled && lexLess(nd+od, nh+oh, m.d, m.h) {
		m.d, m.h, m.w = nd+od, nh+oh, w
		if forward {
			m.f, m.b = u, v
		} else {
			m.f, m.b = v, u
		}
	}
	ws.relax(v, nd, nh, u)
}

// hopMeetingPath returns the hop count and weight of the meeting's path:
// the hops are the meeting's, and the weight is the forward label of f -
// exactly the travel-order prefix sum, since Dijkstra accumulates from src
// - plus the meeting edge and the backward chain's edges in travel order.
// Must be called with ov.mu read-held.
func (ov *Overlay) hopMeetingPath(fw, bw *hopWorkspace, m hopMeeting, dst graph.Vertex) (hops int, w float64) {
	w, _, _ = fw.label(m.f)
	w += m.w
	for x := m.b; x != dst; {
		p := bw.parent[x]
		ew, _ := ov.edgeStateLocked(x, p)
		w += ew
		x = p
	}
	return int(m.h), w
}
