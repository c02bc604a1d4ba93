// Package graph provides the graph substrate for the routing schemes of
// Roditty and Tov, "New routing techniques and their applications" (PODC'15):
// undirected weighted graphs in the fixed-port model of Fraigniaud and
// Gavoille, together with the shortest-path machinery (BFS, Dijkstra,
// truncated searches, all-pairs matrices) that the preprocessing phases of
// the paper's schemes rely on.
//
// Vertices are dense integer identifiers in [0, N). Each vertex numbers its
// incident links with ports 0..deg-1; routing decisions made by the schemes
// are expressed purely in terms of ports, as required by the compact-routing
// model. Port numbering is fixed at Build time (adjacency sorted by neighbor
// id) and never changes afterwards.
//
// # Memory layout
//
// The adjacency is stored in compressed-sparse-row (CSR) form: four flat
// parallel arrays off/to/w/rev, where the half-edges of vertex u occupy the
// contiguous range [off[u], off[u+1]) and are sorted by neighbor id, so port
// p of u is exactly index off[u]+p. The layout is built once in Builder.Build
// and immutable afterwards; search kernels stream the range of one vertex at
// a time, which turns the pointer-chasing of a [][]edge adjacency into
// sequential loads.
//
// # Search workspaces
//
// Every search kernel (ShortestPaths, Nearest, the pruned cluster searches of
// other packages) draws its scratch state - distance/parent/first buffers, a
// 4-ary heap, a head-indexed BFS queue - from a per-graph pool of Workspaces
// instead
// of allocating per call. Visited and finalized sets are epoch-stamped arrays
// (seen[v] == current epoch means "touched this search"), so starting a new
// search is a single epoch increment rather than an O(n) clear. See
// Workspace for the invariants.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Vertex identifies a vertex of a graph. Vertices are dense ids in [0, N).
type Vertex int32

// Port identifies one of the links incident to a vertex. Ports at a vertex u
// are numbered 0..Degree(u)-1 in the fixed-port model.
type Port int32

// NoVertex is the sentinel "no vertex" value.
const NoVertex Vertex = -1

// NoPort is the sentinel "no port" value.
const NoPort Port = -1

// Graph is an immutable undirected graph with positive edge weights and
// fixed port numbering, stored as flat CSR arrays. Build one with a Builder.
type Graph struct {
	// off has length n+1; the half-edges out of u are the index range
	// [off[u], off[u+1]) of to/w/rev, sorted by neighbor id, so port p of u
	// is index off[u]+p.
	off []int32
	to  []Vertex
	w   []float64
	rev []Port // port number of the reverse half-edge at the head

	m    int
	unit bool // all edge weights equal 1

	// wsPool recycles search Workspaces sized for this graph.
	wsPool sync.Pool
}

// Builder accumulates edges for a Graph.
type Builder struct {
	n     int
	us    []Vertex
	vs    []Vertex
	ws    []float64
	errAt error
}

// NewBuilder returns a Builder for a graph with n vertices and no edges.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow reserves room for m more edges, so adding them does not reallocate.
func (b *Builder) Grow(m int) {
	b.us = slices.Grow(b.us, m)
	b.vs = slices.Grow(b.vs, m)
	b.ws = slices.Grow(b.ws, m)
}

// AddEdge records the undirected edge {u, v} with weight w. Self loops,
// vertices out of range and non-positive weights are rejected at Build time.
func (b *Builder) AddEdge(u, v Vertex, w float64) {
	if b.errAt == nil {
		switch {
		case u == v:
			b.errAt = fmt.Errorf("graph: self loop at vertex %d", u)
		case u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n:
			b.errAt = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		case w <= 0:
			b.errAt = fmt.Errorf("graph: edge {%d,%d} has non-positive weight %v", u, v, w)
		}
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
}

// AddUnitEdge records the undirected edge {u, v} with weight 1.
func (b *Builder) AddUnitEdge(u, v Vertex) { b.AddEdge(u, v, 1) }

// csrSegment sorts one vertex's half-edge range by neighbor id, co-moving
// the weights (reverse ports are wired afterwards).
type csrSegment struct {
	to []Vertex
	w  []float64
}

func (s csrSegment) Len() int           { return len(s.to) }
func (s csrSegment) Less(i, j int) bool { return s.to[i] < s.to[j] }
func (s csrSegment) Swap(i, j int) {
	s.to[i], s.to[j] = s.to[j], s.to[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// Build validates the accumulated edges and produces the immutable Graph.
// Duplicate edges are an error.
func (b *Builder) Build() (*Graph, error) {
	if b.errAt != nil {
		return nil, b.errAt
	}
	n := b.n
	g := &Graph{
		off:  make([]int32, n+1),
		to:   make([]Vertex, 2*len(b.us)),
		w:    make([]float64, 2*len(b.us)),
		rev:  make([]Port, 2*len(b.us)),
		m:    len(b.us),
		unit: true,
	}
	// Degree counts, then prefix sums into off.
	for i := range b.us {
		g.off[b.us[i]+1]++
		g.off[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	// Scatter both half-edges of every edge into its vertex's range.
	cursor := make([]int32, n)
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		iu := g.off[u] + cursor[u]
		iv := g.off[v] + cursor[v]
		g.to[iu], g.w[iu] = v, w
		g.to[iv], g.w[iv] = u, w
		cursor[u]++
		cursor[v]++
		if w != 1 {
			g.unit = false
		}
	}
	// Fixed port numbering: sort each range by neighbor id, then wire up the
	// reverse-port indices so crossing a link from either side is O(1).
	for v := 0; v < n; v++ {
		lo, hi := g.off[v], g.off[v+1]
		sort.Sort(csrSegment{to: g.to[lo:hi], w: g.w[lo:hi]})
		for i := lo + 1; i < hi; i++ {
			if g.to[i] == g.to[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", v, g.to[i])
			}
		}
	}
	for u := 0; u < n; u++ {
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.to[i]
			if Vertex(u) < v {
				q := g.portTo(v, Vertex(u))
				g.rev[i] = q
				g.rev[g.off[v]+int32(q)] = Port(i - g.off[u])
			}
		}
	}
	g.wsPool.New = func() any { return newWorkspace(n) }
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Unit reports whether every edge has weight exactly 1 (an unweighted graph).
func (g *Graph) Unit() bool { return g.unit }

// Degree returns the number of links incident to u.
func (g *Graph) Degree(u Vertex) int { return int(g.off[u+1] - g.off[u]) }

// Adjacency returns u's neighbors and link weights in port order, as views
// of the graph's own arrays: callers must not modify them. It is Neighbors
// for loops that cannot afford a callback per edge.
func (g *Graph) Adjacency(u Vertex) (to []Vertex, w []float64) {
	lo, hi := g.off[u], g.off[u+1]
	return g.to[lo:hi:hi], g.w[lo:hi:hi]
}

// Endpoint returns the vertex at the far end of port p of u, the weight of
// that link, and the port number of the link as seen from the far end.
func (g *Graph) Endpoint(u Vertex, p Port) (v Vertex, w float64, rev Port) {
	i := g.off[u] + int32(p)
	return g.to[i], g.w[i], g.rev[i]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v Vertex) bool { return g.portTo(u, v) != NoPort }

// PortTo returns the port at u whose link leads to v, or NoPort if {u, v} is
// not an edge. The standard routing model of Peleg and Upfal assumes this
// neighbor-to-port mapping is available locally; adjacency ranges are sorted,
// so the lookup is a binary search.
func (g *Graph) PortTo(u, v Vertex) Port { return g.portTo(u, v) }

func (g *Graph) portTo(u, v Vertex) Port {
	base := g.off[u]
	a := g.to[base:g.off[u+1]]
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a) && a[lo] == v {
		return Port(lo)
	}
	return NoPort
}

// EdgeWeight returns the weight of edge {u, v}. It returns an error if the
// edge does not exist.
func (g *Graph) EdgeWeight(u, v Vertex) (float64, error) {
	p := g.portTo(u, v)
	if p == NoPort {
		return 0, fmt.Errorf("graph: no edge {%d,%d}", u, v)
	}
	return g.w[g.off[u]+int32(p)], nil
}

// Neighbors calls fn for every port of u in port order. It stops early if fn
// returns false.
func (g *Graph) Neighbors(u Vertex, fn func(p Port, v Vertex, w float64) bool) {
	lo, hi := g.off[u], g.off[u+1]
	for i := lo; i < hi; i++ {
		if !fn(Port(i-lo), g.to[i], g.w[i]) {
			return
		}
	}
}

// ErrDisconnected is returned by whole-graph computations that require a
// connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []Vertex{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			if v := g.to[i]; !seen[v] {
				seen[v] = true
				cnt++
				stack = append(stack, v)
			}
		}
	}
	return cnt == g.N()
}
