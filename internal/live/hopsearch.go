package live

import (
	"compactroute/internal/graph"
)

// hopWorkspace is the scratch state of one overlay search: a Dijkstra that
// also settles every vertex's least hop count among its shortest paths. The
// heap is graph.Workspace's, keyed by (distance, id), and a vertex is
// pushed only when its distance falls, so the search settles vertices in
// the same order as the distance-only kernels. An offer at a vertex's
// current distance with fewer hops rewrites the label in place: the heap
// key is unchanged. Since weights are positive, every tight predecessor of
// v settles before v, so v's hop count is final when v pops, and its parent
// is the first tight predecessor to settle among those one hop closer - the
// least by (distance, id). Labels are epoch-stamped as in graph.Workspace.
// Workspaces are pooled per overlay (Overlay.hopPool).
type hopWorkspace struct {
	dist   []float64
	hops   []int32
	parent []graph.Vertex
	seen   []uint32 // seen[v] == epoch: dist/hops/parent of v are valid
	epoch  uint32
	heap   graph.Heap4
}

func newHopWorkspace(n int) *hopWorkspace {
	return &hopWorkspace{
		dist:   make([]float64, n),
		hops:   make([]int32, n),
		parent: make([]graph.Vertex, n),
		seen:   make([]uint32, n),
		epoch:  1,
	}
}

// lexLess orders (distance, hops) keys.
func lexLess(d1 float64, h1 int32, d2 float64, h2 int32) bool {
	return d1 < d2 || (d1 == d2 && h1 < h2)
}

// start begins a new search rooted at src.
func (ws *hopWorkspace) start(src graph.Vertex) {
	ws.epoch++
	if ws.epoch == 0 { // wrapped: stale stamps could now collide, clear once
		clear(ws.seen)
		ws.epoch = 1
	}
	ws.heap.Reset()
	ws.dist[src], ws.hops[src], ws.parent[src] = 0, 0, graph.NoVertex
	ws.seen[src] = ws.epoch
	ws.heap.Push(0, src)
}

// label returns v's tentative distance and hops and whether v is labeled.
func (ws *hopWorkspace) label(v graph.Vertex) (float64, int32, bool) {
	if ws.seen[v] != ws.epoch {
		return graph.Infinity, 0, false
	}
	return ws.dist[v], ws.hops[v], true
}

// relax offers v distance d and h hops through parent. A shorter distance
// relabels and pushes v; the same distance with fewer hops relabels it in
// place; anything else, ties included, leaves the first labelling.
func (ws *hopWorkspace) relax(v graph.Vertex, d float64, h int32, parent graph.Vertex) {
	if ws.seen[v] == ws.epoch {
		if d > ws.dist[v] || (d == ws.dist[v] && h >= ws.hops[v]) {
			return
		}
		if d == ws.dist[v] {
			ws.hops[v], ws.parent[v] = h, parent
			return
		}
	}
	ws.dist[v], ws.hops[v], ws.parent[v] = d, h, parent
	ws.seen[v] = ws.epoch
	ws.heap.Push(d, v)
}

// pop settles and returns the next vertex in (distance, id) order with its
// final distance and hops, skipping superseded heap entries; ok is false
// once the frontier is empty.
func (ws *hopWorkspace) pop() (v graph.Vertex, d float64, h int32, ok bool) {
	for ws.heap.Len() > 0 {
		d, v := ws.heap.Pop()
		if d == ws.dist[v] {
			return v, d, ws.hops[v], true
		}
	}
	return graph.NoVertex, graph.Infinity, 0, false
}

// peek returns the distance pop would settle next, discarding superseded
// entries on the way; an empty frontier peeks as Infinity.
func (ws *hopWorkspace) peek() float64 {
	for ws.heap.Len() > 0 {
		if d, v := ws.heap.Top(); d == ws.dist[v] {
			return d
		}
		ws.heap.Pop()
	}
	return graph.Infinity
}

// tree copies the settled search, rooted at root, into a shortest-path
// tree: parent[root] = root and graph.NoVertex where root cannot reach. Call
// it once the frontier is exhausted.
func (ws *hopWorkspace) tree(root graph.Vertex) *spTree {
	parent := make([]graph.Vertex, len(ws.parent))
	for v := range parent {
		parent[v] = graph.NoVertex
		if ws.seen[v] == ws.epoch {
			parent[v] = ws.parent[v]
		}
	}
	parent[root] = root
	return &spTree{parent: parent}
}
