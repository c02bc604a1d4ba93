// Package treeroute implements the tree routing scheme of Lemma 3 of the
// paper: given a tree and the label of a destination vertex, route from any
// tree vertex to the destination along the tree path.
//
// Substitution note (documented in DESIGN.md): Fraigniaud-Gavoille and
// Thorup-Zwick achieve O(log^2 n / log log n)-bit storage per vertex with
// port-renumbering tricks. This implementation uses classic interval
// routing - the label of a vertex is its DFS entry time, and each vertex
// stores its own interval plus its children's intervals and ports. The
// routes taken are identical (the unique tree path), so every stretch result
// is unaffected; storage is O(deg_T(u)) words and is accounted honestly by
// WordsAt, which the space experiments report.
//
// Trees are stored flat: per-vertex records live in one id-sorted slice and
// all child intervals in two concatenated slices, with a flat open-addressed
// vertex -> record table in front, so the per-hop Next lookup costs one
// cache-line probe plus the record fetch instead of a map probe chasing
// per-node heap objects or a binary-search descent.
package treeroute

import (
	"fmt"
	"math/bits"
	"sort"

	"compactroute/internal/graph"
)

// Label is the routing label of a vertex within one tree: its DFS entry time.
type Label int32

// NoLabel is returned for vertices outside the tree.
const NoLabel Label = -1

// rec is the per-vertex routing record: the vertex's DFS interval, the port
// to its parent and its slice [childLo, childHi) of the tree's concatenated
// child arrays. Hot fields only - one cache line covers four records.
type rec struct {
	enter      Label
	exit       Label
	parentPort graph.Port
	childLo    int32
	childHi    int32
}

// Tree is a routable tree over a subset of a graph's vertices.
type Tree struct {
	root graph.Vertex
	vs   []graph.Vertex // tree vertices, sorted by id
	rec  []rec          // parallel to vs
	// childEnter[childLo:childHi] are a vertex's children's entry times in
	// increasing order; childPort holds the matching ports.
	childEnter []Label
	childPort  []graph.Port
	// pos16/pos32 is an open-addressed vertex -> vs-index table (Fibonacci
	// hash, linear probing, load factor <= 0.5): the per-hop record lookup
	// is one probe instead of a log2(size) binary-search descent over cold
	// lines. A slot is {vertex id + 1, index}: two uint16 fields (pos16)
	// when every tree vertex id is at most maxNarrowID, which holds for
	// every tree of a graph with n <= 65535, two uint32 fields (pos32)
	// otherwise. Exactly one of the two is set.
	pos16    []posEntry[uint16]
	pos32    []posEntry[uint32]
	posShift uint32 // 32 - log2(slot count)
}

type posEntry[K uint16 | uint32] struct {
	v K // vertex id + 1; 0 marks an empty slot
	i K
}

// maxNarrowID is the largest vertex id a 16-bit slot can key: its key v+1
// must fit a uint16. A tree whose ids are all at most maxNarrowID has at
// most 0xFFFF vertices, so its indexes fit as well.
const maxNarrowID = 0xFFFE

// fibMul is the 32-bit Fibonacci hashing multiplier, floor(2^32 / phi).
const fibMul = 2654435769

// buildPos fills the vertex -> index table; vs must be non-empty, sorted
// and duplicate free (New and DecodeFlatForest validate all three before
// calling), so its last id is the largest.
func (t *Tree) buildPos() {
	if t.vs[len(t.vs)-1] <= maxNarrowID {
		t.pos16, t.posShift = fillPos[uint16](t.vs)
	} else {
		t.pos32, t.posShift = fillPos[uint32](t.vs)
	}
}

func fillPos[K uint16 | uint32](vs []graph.Vertex) ([]posEntry[K], uint32) {
	size := 4
	for size < 2*len(vs) {
		size <<= 1
	}
	pos := make([]posEntry[K], size)
	shift := uint32(32 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for i, v := range vs {
		j := uint32(v) * fibMul >> shift
		for pos[j].v != 0 {
			j = (j + 1) & mask
		}
		pos[j] = posEntry[K]{v: K(v) + 1, i: K(i)}
	}
	return pos, shift
}

// idx returns v's position in the sorted vertex array, or -1.
func (t *Tree) idx(v graph.Vertex) int {
	if t.pos16 != nil {
		return findPos(t.pos16, t.posShift, v)
	}
	return findPos(t.pos32, t.posShift, v)
}

// findPos probes pos for v. A 16-bit table keys only ids up to
// maxNarrowID, so a larger id - whose truncated key could equal a tree
// vertex's - misses without probing.
func findPos[K uint16 | uint32](pos []posEntry[K], shift uint32, v graph.Vertex) int {
	if len(pos) == 0 || v < 0 || uint32(v) >= uint32(^K(0)) {
		return -1
	}
	mask := uint32(len(pos) - 1)
	j := uint32(v) * fibMul >> shift
	key := K(v) + 1
	for {
		e := pos[j]
		if e.v == key {
			return int(e.i)
		}
		if e.v == 0 {
			return -1
		}
		j = (j + 1) & mask
	}
}

// Edge is a parent link used to describe the tree to New.
type Edge struct {
	V      graph.Vertex
	Parent graph.Vertex // NoVertex for the root
}

// New builds a routable tree from parent links. Exactly one edge must name
// the root (Parent == NoVertex), every parent link must be an edge of g, and
// the links must form a single connected tree.
func New(g *graph.Graph, edges []Edge) (*Tree, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("treeroute: empty tree")
	}
	t := &Tree{root: graph.NoVertex, vs: make([]graph.Vertex, 0, len(edges))}
	children := make(map[graph.Vertex][]graph.Vertex, len(edges))
	seen := make(map[graph.Vertex]bool, len(edges))
	for _, e := range edges {
		if seen[e.V] {
			return nil, fmt.Errorf("treeroute: duplicate vertex %d", e.V)
		}
		seen[e.V] = true
		t.vs = append(t.vs, e.V)
		if e.Parent == graph.NoVertex {
			if t.root != graph.NoVertex {
				return nil, fmt.Errorf("treeroute: two roots %d and %d", t.root, e.V)
			}
			t.root = e.V
		} else {
			children[e.Parent] = append(children[e.Parent], e.V)
		}
	}
	if t.root == graph.NoVertex {
		return nil, fmt.Errorf("treeroute: no root")
	}
	sort.Slice(t.vs, func(i, j int) bool { return t.vs[i] < t.vs[j] })
	t.buildPos()
	t.rec = make([]rec, len(t.vs))
	for i := range t.rec {
		t.rec[i].parentPort = graph.NoPort
	}
	for _, e := range edges {
		if e.Parent == graph.NoVertex {
			continue
		}
		if !seen[e.Parent] {
			return nil, fmt.Errorf("treeroute: parent %d of %d not in tree", e.Parent, e.V)
		}
		p := g.PortTo(e.V, e.Parent)
		if p == graph.NoPort {
			return nil, fmt.Errorf("treeroute: tree link {%d,%d} is not a graph edge", e.V, e.Parent)
		}
		t.rec[t.idx(e.V)].parentPort = p
	}
	for v := range children {
		cs := children[v]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	// Iterative DFS assigning enter/exit times; child arrays are collected
	// per vertex first (DFS interleaves parents), then concatenated.
	childEnter := make(map[graph.Vertex][]Label, len(children))
	childPort := make(map[graph.Vertex][]graph.Port, len(children))
	var clock Label
	type frame struct {
		v    graph.Vertex
		next int
	}
	stack := []frame{{v: t.root}}
	t.rec[t.idx(t.root)].enter = clock
	visited := 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		cs := children[f.v]
		if f.next < len(cs) {
			c := cs[f.next]
			f.next++
			clock++
			t.rec[t.idx(c)].enter = clock
			visited++
			childEnter[f.v] = append(childEnter[f.v], clock)
			childPort[f.v] = append(childPort[f.v], g.PortTo(f.v, c))
			stack = append(stack, frame{v: c})
			continue
		}
		t.rec[t.idx(f.v)].exit = clock
		stack = stack[:len(stack)-1]
	}
	if visited != len(edges) {
		return nil, fmt.Errorf("treeroute: tree has %d edges but DFS reached %d vertices (cycle or disconnection)", len(edges), visited)
	}
	total := 0
	for _, ce := range childEnter {
		total += len(ce)
	}
	t.childEnter = make([]Label, 0, total)
	t.childPort = make([]graph.Port, 0, total)
	for i, v := range t.vs {
		t.rec[i].childLo = int32(len(t.childEnter))
		t.childEnter = append(t.childEnter, childEnter[v]...)
		t.childPort = append(t.childPort, childPort[v]...)
		t.rec[i].childHi = int32(len(t.childEnter))
	}
	return t, nil
}

// FromMembers builds a tree from cluster-style members (V, Parent).
func FromMembers[T any](g *graph.Graph, members []T, conv func(T) Edge) (*Tree, error) {
	edges := make([]Edge, len(members))
	for i, m := range members {
		edges[i] = conv(m)
	}
	return New(g, edges)
}

// Root returns the tree's root vertex.
func (t *Tree) Root() graph.Vertex { return t.root }

// Size returns the number of vertices in the tree.
func (t *Tree) Size() int { return len(t.vs) }

// Contains reports whether v is a tree vertex.
func (t *Tree) Contains(v graph.Vertex) bool { return t.idx(v) >= 0 }

// LabelOf returns the routing label of v, or NoLabel if v is not in the tree.
func (t *Tree) LabelOf(v graph.Vertex) Label {
	i := t.idx(v)
	if i < 0 {
		return NoLabel
	}
	return t.rec[i].enter
}

// Next makes the local forwarding decision at u for a packet whose
// destination carries label lbl: deliver here, or forward on the returned
// port. It errors if u is outside the tree or lbl is not a label of this
// tree.
func (t *Tree) Next(u graph.Vertex, lbl Label) (deliver bool, port graph.Port, err error) {
	i := t.idx(u)
	if i < 0 {
		return false, graph.NoPort, fmt.Errorf("treeroute: vertex %d not in tree rooted at %d", u, t.root)
	}
	nd := &t.rec[i]
	switch {
	case lbl == nd.enter:
		return true, graph.NoPort, nil
	case lbl < nd.enter || lbl > nd.exit:
		if nd.parentPort == graph.NoPort {
			return false, graph.NoPort, fmt.Errorf("treeroute: label %d outside tree rooted at %d", lbl, t.root)
		}
		return false, nd.parentPort, nil
	default:
		// lbl lies in some child's interval: rightmost childEnter <= lbl.
		ce := t.childEnter[nd.childLo:nd.childHi]
		lo, hi := 0, len(ce)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ce[mid] <= lbl {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			return false, graph.NoPort, fmt.Errorf("treeroute: inconsistent intervals at %d for label %d", u, lbl)
		}
		return false, t.childPort[int(nd.childLo)+lo-1], nil
	}
}

// WordsAt returns the number of words of routing state vertex v stores for
// this tree: its interval, its parent port and one (enter, port) pair per
// child. Returns 0 for vertices outside the tree.
func (t *Tree) WordsAt(v graph.Vertex) int {
	i := t.idx(v)
	if i < 0 {
		return 0
	}
	return 3 + 2*int(t.rec[i].childHi-t.rec[i].childLo)
}

// Edges returns the tree's parent links (the root carries Parent ==
// NoVertex), sorted by vertex id - a canonical description New accepts back,
// used by the snapshot encoders. Parent vertices are resolved through g's
// port map.
func (t *Tree) Edges(g *graph.Graph) []Edge {
	edges := make([]Edge, 0, len(t.vs))
	for i, v := range t.vs {
		e := Edge{V: v, Parent: graph.NoVertex}
		if pp := t.rec[i].parentPort; pp != graph.NoPort {
			e.Parent, _, _ = g.Endpoint(v, pp)
		}
		edges = append(edges, e)
	}
	return edges
}

// Depth returns the number of tree edges between v and the root, or -1 if v
// is not in the tree. O(depth); used by tests only.
func (t *Tree) Depth(g *graph.Graph, v graph.Vertex) int {
	i := t.idx(v)
	if i < 0 {
		return -1
	}
	depth := 0
	for t.rec[i].parentPort != graph.NoPort {
		parent, _, _ := g.Endpoint(t.vs[i], t.rec[i].parentPort)
		i = t.idx(parent)
		depth++
	}
	return depth
}
