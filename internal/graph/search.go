package graph

import "math"

// Infinity is the distance reported for unreachable vertices.
var Infinity = math.Inf(1)

// SSSP holds a single-source shortest-path tree: distances, tree parents and
// the first hop of a shortest path from the source to every vertex.
//
// Ties between equal-length paths are broken deterministically by the order
// in which the priority queue pops vertices: by distance first and by vertex
// id second, so two runs over the same graph always produce the same tree.
type SSSP struct {
	Source Vertex
	Dist   []float64
	Parent []Vertex // Parent[Source] == NoVertex
	First  []Vertex // first vertex after Source on a shortest path; First[Source] == Source
}

// ShortestPaths computes single-source shortest paths from src, using BFS on
// unit-weight graphs and Dijkstra otherwise. The returned slices are fresh;
// all search scratch comes from the graph's workspace pool.
func (g *Graph) ShortestPaths(src Vertex) *SSSP {
	n := g.N()
	s := &SSSP{
		Source: src,
		Dist:   make([]float64, n),
		Parent: make([]Vertex, n),
		First:  make([]Vertex, n),
	}
	ws := g.AcquireWorkspace()
	g.searchInto(ws, src, s.Dist, s.Parent, s.First)
	g.ReleaseWorkspace(ws)
	return s
}

// searchInto runs the full single-source search from src, writing distances,
// first hops and (when non-nil) tree parents into the caller's slices - the
// allocation-free core shared by ShortestPaths, AllPairs and the LazyAPSP
// row fill. All transient state (heap, BFS queue) lives in ws.
func (g *Graph) searchInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) {
	for i := range dist {
		dist[i] = Infinity
	}
	for i := range first {
		first[i] = NoVertex
	}
	if parent != nil {
		for i := range parent {
			parent[i] = NoVertex
		}
	}
	dist[src] = 0
	first[src] = src
	if g.unit {
		g.bfsInto(ws, src, dist, parent, first)
	} else {
		g.dijkstraInto(ws, src, dist, parent, first)
	}
}

// bfsInto is the unit-weight search. The frontier lives in the workspace's
// preallocated queue, drained by a head index that never wraps (at most n
// vertices are ever enqueued), so the whole search performs no queue
// reallocation (the old queue = queue[1:] idiom shrank the backing array's
// capacity with every dequeue and forced append to reallocate mid-search).
func (g *Graph) bfsInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) {
	q := append(ws.queue[:0], src)
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := dist[u] + 1
		fu := first[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.to[i]
			if first[v] != NoVertex { // discovered (first[src] == src)
				continue
			}
			dist[v] = du
			if parent != nil {
				parent[v] = u
			}
			if u == src {
				first[v] = v
			} else {
				first[v] = fu
			}
			q = append(q, v)
		}
	}
}

// dijkstraInto is the weighted search: a lazy-deletion Dijkstra over the
// workspace's 4-ary heap. Stale heap entries are recognized by distance
// mismatch (relaxations are strict improvements, so a popped entry matching
// its label is the finalizing pop), preserving the exact (dist, id)
// finalization order of the original done-set implementation.
func (g *Graph) dijkstraInto(ws *Workspace, src Vertex, dist []float64, parent, first []Vertex) {
	h := &ws.heap
	h.Reset()
	h.Push(0, src)
	for h.Len() > 0 {
		d, u := h.Pop()
		if d != dist[u] {
			continue // superseded by a shorter relaxation
		}
		fu := first[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.to[i]
			nd := d + g.w[i]
			if nd < dist[v] {
				dist[v] = nd
				if parent != nil {
					parent[v] = u
				}
				if u == src {
					first[v] = v
				} else {
					first[v] = fu
				}
				h.Push(nd, v)
			}
		}
	}
}

// Path reconstructs the tree path from the source to v, inclusive on both
// ends. It returns nil if v is unreachable.
func (s *SSSP) Path(v Vertex) []Vertex {
	if math.IsInf(s.Dist[v], 1) {
		return nil
	}
	var rev []Vertex
	for x := v; x != NoVertex; x = s.Parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NearestResult is one finalized vertex of a truncated search, in
// non-decreasing (dist, id) order from the source.
type NearestResult struct {
	V      Vertex
	Dist   float64
	Parent Vertex // NoVertex for the source itself
}

// Nearest runs a truncated shortest-path search from src and returns every
// vertex whose distance is at most that of the k-th closest vertex, sorted by
// (dist, id). The result therefore contains at least min(k, reachable)
// vertices and closes out whole distance classes, which lets callers apply
// the paper's lexicographic tie-break exactly (B(u, l) in Section 2).
func (g *Graph) Nearest(src Vertex, k int) []NearestResult {
	if k <= 0 {
		return nil
	}
	return g.AppendNearest(nil, src, k)
}

// AppendNearest is Nearest appending into out, the steady-state form for
// callers that recycle their result buffer: with a warm buffer and workspace
// pool the truncated search performs no allocations. k <= 0 returns out
// unchanged.
func (g *Graph) AppendNearest(out []NearestResult, src Vertex, k int) []NearestResult {
	if k <= 0 {
		return out
	}
	base := len(out)
	ws := g.AcquireWorkspace()
	ws.Start(src)
	cutoff := Infinity
	count := 0
	for {
		v, d, ok := ws.Pop()
		if !ok {
			break
		}
		// Once k vertices are finalized, keep going only while the popped
		// distance still equals the distance of the k-th vertex, so the
		// final distance class is complete.
		if count >= k && d > cutoff {
			break
		}
		out = append(out, NearestResult{V: v, Dist: d, Parent: ws.Parent(v)})
		count++
		if count == k {
			cutoff = d
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			ws.Relax(g.to[i], d+g.w[i], v)
		}
	}
	g.ReleaseWorkspace(ws)
	// The heap pops by (dist, id), but a vertex can be *discovered* late:
	// within the final distance class the pop order may interleave ids, so
	// re-sort to get the exact lexicographic order the paper requires.
	sortNearest(out[base:])
	return out
}

func sortNearest(rs []NearestResult) {
	// Insertion-style sort is fine: the slice is already almost sorted.
	for i := 1; i < len(rs); i++ {
		j := i
		for j > 0 && less(rs[j], rs[j-1]) {
			rs[j], rs[j-1] = rs[j-1], rs[j]
			j--
		}
	}
}

func less(a, b NearestResult) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.V < b.V
}
