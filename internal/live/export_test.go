package live

import (
	"fmt"

	"compactroute/internal/graph"
)

// FallbackPath runs the router's exact fallback search from src to dst and
// returns what it reports, plus the vertex path (src..dst inclusive) that
// its meeting edge and parent chains describe, so tests can check that the
// reported hops and weight belong to a real path. src != dst.
func (ov *Overlay) FallbackPath(src, dst graph.Vertex) (path []graph.Vertex, hops int, w float64, ok bool) {
	hops, w, ok = ov.shortestPath(src, dst)
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	fw := ov.base.AcquireWorkspace()
	bw := ov.base.AcquireWorkspace()
	defer ov.base.ReleaseWorkspace(fw)
	defer ov.base.ReleaseWorkspace(bw)
	m := ov.bidi(fw, bw, src, dst, graph.Infinity)
	if m.f == graph.NoVertex {
		return nil, hops, w, ok
	}
	path = reconstruct(fw, src, m.f)
	for x := m.b; ; x = bw.Parent(x) {
		path = append(path, x)
		if x == dst {
			break
		}
	}
	return path, hops, w, ok
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
