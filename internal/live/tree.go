package live

import (
	"sync/atomic"

	"compactroute/internal/graph"
)

// maxTreeBytes bounds the bytes of fallback trees one overlay version may
// hold: at n = 5000, 1677 trees of 4n bytes. A vertex whose turn comes past
// the bound keeps the bidirectional search.
const maxTreeBytes = 32 << 20

// treeChunk is how many vertices a tree build settles per hold of the read
// lock. Between chunks a waiting writer gets the lock, so neither it nor
// the readers queued behind it wait for a whole build.
const treeChunk = 128

// treeSet is one overlay version's cache of fallback trees. roots[x] holds
// the shortest-path tree of the effective graph rooted at x, nil until
// built; rent[x] is the number of vertices the bidirectional fallbacks from
// x have settled in this version, and bytes the tree bytes reserved.
type treeSet struct {
	roots []atomic.Pointer[spTree]
	rent  []atomic.Int32
	bytes atomic.Int64
}

// spTree is a shortest-path tree of the effective graph: parent[v] is v's
// parent on the least (distance, hops) path from the root, parent[root] =
// root, and graph.NoVertex marks a vertex the root cannot reach.
type spTree struct {
	parent []graph.Vertex
}

// treeSetLocked returns the current version's tree set, creating it on the
// version's first fallback. Must be called with ov.mu read-held.
func (ov *Overlay) treeSetLocked() *treeSet {
	if set := ov.trees.Load(); set != nil {
		return set
	}
	n := ov.base.N()
	set := &treeSet{roots: make([]atomic.Pointer[spTree], n), rent: make([]atomic.Int32, n)}
	if !ov.trees.CompareAndSwap(nil, set) {
		return ov.trees.Load()
	}
	return set
}

// chargeLocked adds pops, the vertices one bidirectional fallback from x
// settled, to x's rent, and reports whether the caller should build x's
// tree: true for the one call that lifts the rent to ov.treeRent - about
// the vertices one tree build settles - when a tree's bytes still fit the
// budget. So a vertex pays for its tree only once its searches have cost as
// much, and a version that ends first, or an abandon point seen a few
// times, costs what the searches alone would. Must be called with ov.mu
// read-held.
func (ov *Overlay) chargeLocked(set *treeSet, x graph.Vertex, pops int) bool {
	rent := int32(ov.treeRent)
	r := &set.rent[x]
	if r.Load() >= rent {
		return false
	}
	if now := r.Add(int32(pops)); now < rent || now-int32(pops) >= rent {
		return false
	}
	b := int64(4 * ov.base.N())
	if set.bytes.Add(b) > int64(ov.treeBudget) {
		set.bytes.Add(-b)
		return false
	}
	return true
}

// buildTree runs the hop-tracking Dijkstra (hopWorkspace) from x over the
// effective graph to exhaustion and publishes the tree in set. It takes
// the read lock once per treeChunk settled vertices and checks under each
// hold that set is still the current version's: every chunk then reads the
// graph the build started on, so the published tree belongs to its
// version, and a build that a mutation overtakes stops instead of
// finishing a tree no reader would see. Must be called without ov.mu held.
func (ov *Overlay) buildTree(set *treeSet, x graph.Vertex) {
	ws := ov.hopPool.Get().(*hopWorkspace)
	defer ov.hopPool.Put(ws)
	ws.start(x)
	for {
		ov.mu.RLock()
		if ov.trees.Load() != set {
			ov.mu.RUnlock()
			return
		}
		for range treeChunk {
			u, d, h, ok := ws.pop()
			if !ok {
				set.roots[x].Store(ws.tree(x))
				ov.treeBuilds.Add(1)
				ov.mu.RUnlock()
				return
			}
			if ov.touch[u] == 0 {
				to, wt := ov.base.Adjacency(u)
				for i, v := range to {
					ws.relax(v, d+wt[i], h+1, u)
				}
				continue
			}
			ov.neighborsLocked(u, func(v graph.Vertex, w float64) bool {
				ws.relax(v, d+w, h+1, u)
				return true
			})
		}
		ov.mu.RUnlock()
	}
}

// treePath walks t, the tree rooted at src, from dst up to src and returns
// the hop count and weight of the tree path src..dst: its current edge
// weights summed in travel order from src, as a packet crossing it adds
// them. ok is false when src cannot reach dst. Must be called with ov.mu
// read-held, on a tree of the current version.
func (ov *Overlay) treePath(t *spTree, src, dst graph.Vertex) (hops int, w float64, ok bool) {
	if t.parent[dst] == graph.NoVertex {
		return 0, 0, false
	}
	// The chain is collected dst-first; paths of up to len(buf) hops stay on
	// the stack.
	var buf [128]graph.Vertex
	chain := buf[:0]
	for x := dst; x != src; x = t.parent[x] {
		chain = append(chain, x)
	}
	at := src
	for i := len(chain) - 1; i >= 0; i-- {
		ew, _ := ov.edgeStateLocked(at, chain[i])
		w += ew
		at = chain[i]
	}
	return len(chain), w, true
}
