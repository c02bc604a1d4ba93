package live

import (
	"fmt"
	"slices"

	"compactroute/internal/graph"
)

// FallbackPath runs the router's exact fallback from src to dst and returns
// what it reports, plus a vertex path (src..dst inclusive) the fallback
// could have taken - src's tree path when the current version holds src's
// tree, else the path the bidirectional search's meeting edge and parent
// chains describe - so tests can check that the reported hops and weight
// belong to a real path. src != dst.
func (ov *Overlay) FallbackPath(src, dst graph.Vertex) (path []graph.Vertex, hops int, w float64, ok bool) {
	hops, w, ok = ov.shortestPath(src, dst)
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	if t := ov.treeSetLocked().roots[src].Load(); t != nil {
		return treeChain(t.parent, src, dst), hops, w, ok
	}
	fw, bw := newHopWorkspace(ov.base.N()), newHopWorkspace(ov.base.N())
	m, _ := ov.hopBidi(fw, bw, src, dst, graph.Infinity)
	if m.f == graph.NoVertex {
		return nil, hops, w, ok
	}
	for x := m.f; x != graph.NoVertex; x = fw.parent[x] {
		path = append(path, x)
	}
	slices.Reverse(path)
	for x := m.b; ; x = bw.parent[x] {
		path = append(path, x)
		if x == dst {
			break
		}
	}
	return path, hops, w, ok
}

// treeChain walks parent from dst up to src and returns the src..dst path,
// or nil when the chain ends at graph.NoVertex first.
func treeChain(parent []graph.Vertex, src, dst graph.Vertex) []graph.Vertex {
	var rev []graph.Vertex
	for x := dst; x != graph.NoVertex; x = parent[x] {
		rev = append(rev, x)
		if x == src {
			slices.Reverse(rev)
			return rev
		}
	}
	return nil
}

// FallbackTree returns the parent array of x's shortest-path tree in the
// current version, building the tree first - regardless of rent and budget
// - when the version holds none.
func (ov *Overlay) FallbackTree(x graph.Vertex) []graph.Vertex {
	for {
		ov.mu.RLock()
		set := ov.treeSetLocked()
		t := set.roots[x].Load()
		ov.mu.RUnlock()
		if t != nil {
			return t.parent
		}
		ov.buildTree(set, x)
	}
}

// CachedTrees returns the number of trees the current overlay version holds.
func (ov *Overlay) CachedTrees() int {
	set := ov.trees.Load()
	if set == nil {
		return 0
	}
	held := 0
	for i := range set.roots {
		if set.roots[i].Load() != nil {
			held++
		}
	}
	return held
}

// FallbackRent returns the vertices x's bidirectional fallbacks have
// settled in the current version, as far as they were charged.
func (ov *Overlay) FallbackRent(x graph.Vertex) int {
	set := ov.trees.Load()
	if set == nil {
		return 0
	}
	return int(set.rent[x].Load())
}

// SetTreeBudget replaces the overlay's tree budget (maxTreeBytes) with b
// bytes; 0 keeps every fallback on the bidirectional search.
func (ov *Overlay) SetTreeBudget(b int) {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	ov.treeBudget = b
}

// SetTreeRent replaces the settled-vertex count at which a vertex's
// fallbacks build its tree (the vertex count); 1 builds on the first.
func (ov *Overlay) SetTreeRent(r int) {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	ov.treeRent = r
}

// CheckTouchIndex reports an error unless every vertex's touch count equals
// the number of overlay entries incident to it.
func (ov *Overlay) CheckTouchIndex() error {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	want := make([]int32, ov.base.N())
	for k := range ov.states {
		want[k.u]++
		want[k.v]++
	}
	for u, c := range want {
		if ov.touch[u] != c {
			return fmt.Errorf("touch[%d] = %d, want %d incident entries", u, ov.touch[u], c)
		}
	}
	return nil
}
