package graph

import (
	"math"
	"slices"
	"sync"

	"compactroute/internal/parallel"
)

// Carry returns a LazyAPSP over next, with the same budget and shard count as
// l, that starts out holding every row l holds, carried across the edge
// changes between l's graph and next. l is not modified and stays valid.
//
// Each resident row of l is, in this order:
//
//   - shared, when no changed edge can have touched it: the new cache holds
//     the very same slices (rows are immutable by contract);
//   - patched, on the Dijkstra kernel: only the vertices whose distance or
//     canonical parent moved are recomputed, into two fresh result slices;
//   - dropped, on the BFS kernel, to be refilled on demand like any uncached
//     row.
//
// Share rule. Let d be a row's old distances. The row is unchanged when, for
// every changed edge {x, y} with old weight wOld and new weight wNew (a
// missing side reads +Inf), the old edge is not tight (d[x]+wOld != d[y] and
// d[y]+wOld != d[x]) and the new edge neither improves nor ties (d[x]+wNew >
// d[y] and d[y]+wNew > d[x]); an edge between two vertices the row cannot
// reach plays no part either. The test uses the search's own additions, so it
// is exact in its arithmetic. Dijkstra finalizes in (dist, id) order and only
// a strict improvement relabels a vertex, so a vertex's canonical parent is
// its (dist, id)-least tight predecessor, and an edge that is tight in
// neither graph changes no distance and no parent. On a unit graph a
// non-tight edge joins two vertices of one BFS level, and discovery never
// uses such an edge.
//
// Patch (Ramalingam and Reps' incremental shortest paths, with the search's
// tie-break kept exactly). Starting from copies of the old row: the subtrees
// of the old canonical-parent tree below every deleted or raised tree edge
// are orphaned and re-searched by a Dijkstra restricted to them and to the
// endpoints an inserted or lowered edge improves, each orphan seeded from its
// non-orphan neighbours; then the canonical parent of every vertex whose
// distance changed, of its neighbours and of every changed-edge endpoint is
// re-derived, and First is recomputed in (dist, id) order down each new
// subtree for as long as it keeps changing. Parents are re-derived from the
// distances and the adjacency, so a row stores nothing beyond Dist and First.
//
// Kernel guard. Nothing is carried when the vertex count differs, when one
// graph is unit-weight and the other is not (BFS and Dijkstra break ties
// differently), or when an edge weight is so small against the largest
// possible distance that an addition could round it away - the (dist, id)
// finalization order the share rule and the patch rest on needs every
// relaxation to strictly increase the distance.
//
// Budget. The new cache has l's budget and shard count, and each carried row
// goes to the same shard it left, least recently used first, so the rows keep
// their recency order. A patched row is stored at its own narrowest width;
// if one widens past its shard's share, the shard evicts its least recently
// used rows first, as a fill would. Every row l does not hold fills on
// demand. Stats reports the carried rows as SharedRows and PatchedRows, and
// any row a widened one pushed out as an eviction.
func (l *LazyAPSP) Carry(next *Graph) *LazyAPSP {
	out := NewLazyAPSP(next, LazyConfig{MemBudget: l.budget, Shards: len(l.shards)})
	old := l.g
	if old.N() != next.N() || old.unit != next.unit || !old.exactSums() || !next.exactSums() {
		return out
	}
	// Snapshot the resident rows, least recently used first per shard, so
	// pushing them to the front of the new shards keeps their order. Each
	// entry is then replaced by its carried row, or by the zero Row when it
	// is dropped.
	rows := make([]Row, 0, l.rows.Load())
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for e := sh.tail; e != nil; e = e.prev {
			rows = append(rows, e.row)
		}
		sh.mu.Unlock()
	}
	deltas := diffEdges(old, next)
	patched := make([]bool, len(rows))
	var pool sync.Pool
	parallel.For(len(rows), func(i int) {
		r := rows[i]
		switch {
		case rowUnchanged(r, deltas):
		case !next.unit:
			p, _ := pool.Get().(*rowPatcher)
			if p == nil {
				p = newRowPatcher(old, next, deltas)
			}
			rows[i], patched[i] = p.patch(r), true
			pool.Put(p)
		default:
			rows[i] = Row{}
		}
	})
	for i, r := range rows {
		if r.dist16 == nil && r.dist64 == nil {
			continue // dropped
		}
		if patched[i] {
			out.patched++
		} else {
			out.shared++
		}
		out.insert(&out.shards[int(r.Src)%len(out.shards)], r)
	}
	return out
}

// exactSums reports whether every distance sum a search over g forms grows
// strictly with each edge it adds: the smallest weight is at least one unit
// in the last place of the largest possible distance, (n-1) times the
// largest weight.
func (g *Graph) exactSums() bool {
	if g.unit || len(g.w) == 0 {
		return true
	}
	lo, hi := g.w[0], g.w[0]
	for _, w := range g.w {
		lo, hi = min(lo, w), max(hi, w)
	}
	return lo*(1<<52) >= float64(g.N())*hi
}

// edgeDelta is one edge whose weight differs between two graphs over the same
// vertex set, x < y; a missing side reads +Inf.
type edgeDelta struct {
	x, y       Vertex
	wOld, wNew float64
}

// diffEdges merges the old and new CSR range of every vertex (both sorted by
// neighbour id) into the list of changed edges, in O(n + m).
func diffEdges(old, next *Graph) []edgeDelta {
	var out []edgeDelta
	for u := Vertex(0); int(u) < old.N(); u++ {
		i, iEnd := old.off[u], old.off[u+1]
		j, jEnd := next.off[u], next.off[u+1]
		for i < iEnd || j < jEnd {
			var v Vertex
			wOld, wNew := Infinity, Infinity
			switch {
			case j == jEnd || (i < iEnd && old.to[i] < next.to[j]):
				v, wOld = old.to[i], old.w[i]
				i++
			case i == iEnd || next.to[j] < old.to[i]:
				v, wNew = next.to[j], next.w[j]
				j++
			default:
				v, wOld, wNew = old.to[i], old.w[i], next.w[j]
				i++
				j++
			}
			if u < v && wOld != wNew {
				out = append(out, edgeDelta{x: u, y: v, wOld: wOld, wNew: wNew})
			}
		}
	}
	return out
}

// rowUnchanged is the share rule of Carry for the old row r.
func rowUnchanged(r Row, deltas []edgeDelta) bool {
	for _, e := range deltas {
		dx, dy := r.Dist(e.x), r.Dist(e.y)
		if math.IsInf(dx, 1) && math.IsInf(dy, 1) {
			continue
		}
		if dx+e.wOld == dy || dy+e.wOld == dx || !(dx+e.wNew > dy) || !(dy+e.wNew > dx) {
			return false
		}
	}
	return true
}

// parentOf returns the canonical parent of v in the Dijkstra tree over g
// whose distances are d: the (dist, id)-least neighbour u with d[u] + w(u, v)
// == d[v], the one relaxation the search keeps. NoVertex for an unreachable
// v or the source.
func parentOf(g *Graph, d []float64, v Vertex) Vertex {
	best, bestD := NoVertex, Infinity
	dv := d[v]
	if math.IsInf(dv, 1) {
		return NoVertex
	}
	// The range is sorted by id, so the first tight neighbour at the least
	// distance is the (dist, id)-least one.
	for i := g.off[v]; i < g.off[v+1]; i++ {
		if u := g.to[i]; d[u]+g.w[i] == dv && d[u] < bestD {
			best, bestD = u, d[u]
		}
	}
	return best
}

// rowPatcher patches Dijkstra rows across one fixed set of edge changes. Its
// sets are epoch-stamped (set[v] == epoch means member), so a row starts with
// one increment instead of clearing O(n) state, and the scratch is reused
// across every row one worker patches. The old row's distances are widened
// into nd, where the patch runs; the result keeps the old first-hop width
// (it depends on n alone) and is narrowed again on the entries that moved.
type rowPatcher struct {
	old, next *Graph
	deltas    []edgeDelta

	nd []float64

	epoch   uint32
	orphan  []uint32 // below a cut tree edge
	touched []uint32 // pushed by the restricted search
	queued  []uint32 // scheduled for the First pass
	orphans []Vertex
	pushed  []Vertex
	heap    Heap4
}

func newRowPatcher(old, next *Graph, deltas []edgeDelta) *rowPatcher {
	n := old.N()
	return &rowPatcher{old: old, next: next, deltas: deltas, nd: make([]float64, n),
		orphan: make([]uint32, n), touched: make([]uint32, n), queued: make([]uint32, n)}
}

// patch returns the row of r.Src over p.next, derived from r, the row of the
// same source over p.old. Its only allocations are the two result slices.
func (p *rowPatcher) patch(r Row) Row {
	p.epoch++
	if p.epoch == 0 {
		clear(p.orphan)
		clear(p.touched)
		clear(p.queued)
		p.epoch = 1
	}
	ep, src, nd := p.epoch, r.Src, p.nd
	old, nx := p.old, p.next
	r.widenDist(nd)
	// Step 1 reads the old distances from d, which is nd until step 2
	// writes it; later steps read them from r.
	d := nd
	out := Row{Src: src, first16: slices.Clone(r.first16), first32: slices.Clone(r.first32)}

	// 1. Orphans: the old subtrees below every deleted or raised tree edge.
	p.orphans = p.orphans[:0]
	adopt := func(par, c Vertex) {
		if p.orphan[c] != ep && parentOf(old, d, c) == par {
			p.orphan[c] = ep
			p.orphans = append(p.orphans, c)
		}
	}
	for _, e := range p.deltas {
		if e.wNew > e.wOld {
			if d[e.x]+e.wOld == d[e.y] {
				adopt(e.x, e.y)
			}
			if d[e.y]+e.wOld == d[e.x] {
				adopt(e.y, e.x)
			}
		}
	}
	for head := 0; head < len(p.orphans); head++ {
		v := p.orphans[head]
		for i := old.off[v]; i < old.off[v+1]; i++ {
			if c := old.to[i]; d[v]+old.w[i] == d[c] {
				adopt(v, c)
			}
		}
	}

	// 2. The restricted search: orphans seeded from their non-orphan
	// neighbours, plus the endpoints an inserted or lowered edge improves.
	// Every label is an upper bound realized by a path of the new graph, and
	// every edge whose tail is not on the heap is already consistent, so
	// running the heap dry leaves exactly the new distances.
	h := &p.heap
	h.Reset()
	p.pushed = p.pushed[:0]
	push := func(v Vertex, dv float64) {
		nd[v] = dv
		h.Push(dv, v)
		if p.touched[v] != ep {
			p.touched[v] = ep
			p.pushed = append(p.pushed, v)
		}
	}
	for _, o := range p.orphans {
		nd[o] = Infinity
	}
	for _, o := range p.orphans {
		best := Infinity
		for i := nx.off[o]; i < nx.off[o+1]; i++ {
			if u := nx.to[i]; p.orphan[u] != ep {
				best = min(best, nd[u]+nx.w[i])
			}
		}
		if best < Infinity {
			push(o, best)
		}
	}
	for _, e := range p.deltas {
		if e.wNew < e.wOld {
			if c := nd[e.x] + e.wNew; c < nd[e.y] {
				push(e.y, c)
			}
			if c := nd[e.y] + e.wNew; c < nd[e.x] {
				push(e.x, c)
			}
		}
	}
	for h.Len() > 0 {
		dv, v := h.Pop()
		if dv != nd[v] {
			continue // superseded by a shorter relaxation
		}
		for i := nx.off[v]; i < nx.off[v+1]; i++ {
			if c := nx.to[i]; dv+nx.w[i] < nd[c] {
				push(c, dv+nx.w[i])
			}
		}
	}

	// 3. Candidates for a new canonical parent: every vertex whose distance
	// moved, its neighbours, and every changed-edge endpoint. Any other
	// vertex sees the same distances over the same edges, so it keeps its
	// parent.
	h.Reset()
	queue := func(v Vertex) {
		if p.queued[v] == ep {
			return
		}
		p.queued[v] = ep
		if math.IsInf(nd[v], 1) {
			out.setFirst(v, NoVertex)
			return
		}
		h.Push(nd[v], v)
	}
	moved := func(v Vertex) {
		if nd[v] == r.Dist(v) {
			return
		}
		queue(v)
		for i := nx.off[v]; i < nx.off[v+1]; i++ {
			queue(nx.to[i])
		}
	}
	for _, v := range p.orphans {
		moved(v)
	}
	for _, v := range p.pushed {
		moved(v)
	}
	for _, e := range p.deltas {
		queue(e.x)
		queue(e.y)
	}

	// 4. First, in (dist, id) order, so a parent's entry is final before its
	// children read it. A vertex whose First changed passes the change on to
	// its tree children that are not queued already (their parent is
	// unchanged, so their First was the parent's old one).
	for h.Len() > 0 {
		dv, v := h.Pop()
		fv := src
		if v != src {
			if par := parentOf(nx, nd, v); par == src {
				fv = v
			} else {
				fv = out.First(par)
			}
		}
		out.setFirst(v, fv)
		if fv == r.First(v) {
			continue
		}
		for i := nx.off[v]; i < nx.off[v+1]; i++ {
			if c := nx.to[i]; p.queued[c] != ep && dv+nx.w[i] == nd[c] && parentOf(nx, nd, c) == v {
				p.queued[c] = ep
				h.Push(nd[c], c)
			}
		}
	}
	out.dist16, out.dist64 = r.patchDist(nd, p.orphans, p.pushed)
	return out
}
