// Incremental repair of a landmark structure after edge updates. The
// landmark set A is kept fixed; only the derived state (p_A, d(., A),
// clusters, bunches) is brought up to date, and only the clusters that can
// have changed are recomputed. A cluster C_A(w) is a function of the graph,
// of w, and of the d(., A) row; its pruned Dijkstra can diverge from the old
// one only if the search crosses an updated edge or reads a changed d(x, A)
// value - in both cases the divergence point is a member of the old or the
// new cluster, so seeding the dirty-root set with the bunches of the update
// endpoints and of every vertex whose (p_A, d(., A)) entry changed covers
// every cluster that differs. Clean clusters share their member slices with
// the old structure.
package cluster

import (
	"fmt"
	"sort"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
)

// RepairLandmarks rebuilds the derived state of old over the updated graph
// g, recomputing only dirty clusters. touched lists the endpoints of every
// updated edge. The repaired structure is bit-identical to New(g, old.A);
// if some recomputed cluster exceeds bound (the Lemma 4 guarantee the fixed
// landmark set no longer provides on the new graph), an error is returned
// and the caller must escalate to a full rebuild (which re-runs the center
// cover). The returned slice holds the recomputed cluster roots in
// ascending order - the dirty-set size the repair stats report.
func RepairLandmarks(g *graph.Graph, old *Landmarks, touched []graph.Vertex, bound int) (*Landmarks, []graph.Vertex, error) {
	n := g.N()
	if len(old.P) != n {
		return nil, nil, fmt.Errorf("cluster: repair: graph has n=%d, structure has n=%d", n, len(old.P))
	}
	newP, newDistA, err := Nearest(g, old.A)
	if err != nil {
		return nil, nil, err
	}
	// Seeds: update endpoints plus every vertex whose nearest-landmark entry
	// moved. A clean cluster's pruned search never reads anything else that
	// changed.
	seedSet := make([]bool, n)
	var seeds []graph.Vertex
	addSeed := func(v graph.Vertex) {
		if v >= 0 && int(v) < n && !seedSet[v] {
			seedSet[v] = true
			seeds = append(seeds, v)
		}
	}
	for _, v := range touched {
		addSeed(v)
	}
	for v := 0; v < n; v++ {
		if newP[v] != old.P[v] || newDistA[v] != old.DistA[v] {
			addSeed(graph.Vertex(v))
		}
	}
	// Dirty roots: the old and the new bunch of every seed. The old bunch is
	// stored; the new bunch of v is the ball {w : d_new(v, w) < d_new(v, A)}
	// plus v itself, one pruned search per seed.
	dirtyRoot := make([]bool, n)
	var dirtyRoots []graph.Vertex
	markRoot := func(w graph.Vertex) {
		if !dirtyRoot[w] {
			dirtyRoot[w] = true
			dirtyRoots = append(dirtyRoots, w)
		}
	}
	for _, v := range seeds {
		for _, w := range old.bunches[v] {
			markRoot(w)
		}
		r := newDistA[v]
		ws := g.AcquireWorkspace()
		ws.Start(v)
		for {
			w, d, ok := ws.Pop()
			if !ok {
				break
			}
			markRoot(w)
			g.Neighbors(w, func(_ graph.Port, x graph.Vertex, ew float64) bool {
				if nd := d + ew; nd < r {
					ws.Relax(x, nd, w)
				}
				return true
			})
		}
		g.ReleaseWorkspace(ws)
	}
	sort.Slice(dirtyRoots, func(i, j int) bool { return dirtyRoots[i] < dirtyRoots[j] })

	l := &Landmarks{
		A:        old.A,
		inA:      old.inA,
		P:        newP,
		DistA:    newDistA,
		clusters: make([][]Member, n),
	}
	copy(l.clusters, old.clusters)
	// Recompute dirty clusters with buildClusters' search against the new
	// d(., A) row.
	parallel.For(len(dirtyRoots), func(i int) {
		l.clusters[dirtyRoots[i]] = l.searchCluster(g, dirtyRoots[i])
	})
	for _, w := range dirtyRoots {
		if sz := len(l.clusters[w]); sz > bound {
			return nil, nil, fmt.Errorf("cluster: repair: cluster C_A(%d) grew to %d > bound %d", w, sz, bound)
		}
	}
	// Bunches are the transpose of the cluster relation; rebuilding them all
	// (as buildClusters does) is linear in the total cluster size and keeps
	// the result independent of which roots were dirty.
	l.bunches = transposeBunches(l.clusters)
	return l, dirtyRoots, nil
}

// ball marks (in out) every w with d_g(v, w) < r plus v itself - the bunch
// of v when r = d(v, A) - and appends the newly marked vertices to roots.
func ball(g *graph.Graph, v graph.Vertex, r float64, out []bool, roots []graph.Vertex) []graph.Vertex {
	ws := g.AcquireWorkspace()
	defer g.ReleaseWorkspace(ws)
	ws.Start(v)
	for {
		w, d, ok := ws.Pop()
		if !ok {
			return roots
		}
		if !out[w] {
			out[w] = true
			roots = append(roots, w)
		}
		g.Neighbors(w, func(_ graph.Port, x graph.Vertex, ew float64) bool {
			if nd := d + ew; nd < r {
				ws.Relax(x, nd, w)
			}
			return true
		})
	}
}

// clusterSize runs the pruned cluster search of root w against the given
// d(., A) row and returns |C_A(w)| - the exact size buildClusters would
// store.
func clusterSize(g *graph.Graph, w graph.Vertex, distA []float64) int {
	ws := g.AcquireWorkspace()
	defer g.ReleaseWorkspace(ws)
	ws.Start(w)
	size := 0
	for {
		u, d, ok := ws.Pop()
		if !ok {
			return size
		}
		size++
		g.Neighbors(u, func(_ graph.Port, x graph.Vertex, ew float64) bool {
			if nd := d + ew; nd < distA[x] {
				ws.Relax(x, nd, u)
			}
			return true
		})
	}
}

// VerifyCoverTrace checks that CenterCover with the recorded trajectory's
// seed would sample the exact same landmark set on the updated graph g as it
// did on oldG: the sampling decisions depend only on the per-round oversized
// sets, so it suffices that every recorded round's oversized set is
// reproduced on g. Per round, only the clusters an updated edge can have
// changed are re-measured (same dirtiness rule as RepairLandmarks, against
// the round's intermediate landmark prefix); an error means a from-scratch
// build would choose different landmarks and the caller must escalate.
func VerifyCoverTrace(oldG, g *graph.Graph, trace *CoverTrace, touched []graph.Vertex) error {
	if trace == nil {
		return fmt.Errorf("cluster: no cover trace recorded")
	}
	n := g.N()
	for ri, round := range trace.Rounds {
		if round.ALen < 1 || round.ALen > len(trace.Order) {
			return fmt.Errorf("cluster: cover trace round %d has bad prefix %d", ri, round.ALen)
		}
		aR := trace.Order[:round.ALen]
		oldP, oldDistA, err := Nearest(oldG, aR)
		if err != nil {
			return err
		}
		newP, newDistA, err := Nearest(g, aR)
		if err != nil {
			return err
		}
		seedSet := make([]bool, n)
		var seeds []graph.Vertex
		addSeed := func(v graph.Vertex) {
			if v >= 0 && int(v) < n && !seedSet[v] {
				seedSet[v] = true
				seeds = append(seeds, v)
			}
		}
		for _, v := range touched {
			addSeed(v)
		}
		for v := 0; v < n; v++ {
			if newP[v] != oldP[v] || newDistA[v] != oldDistA[v] {
				addSeed(graph.Vertex(v))
			}
		}
		dirty := make([]bool, n)
		var roots []graph.Vertex
		for _, v := range seeds {
			roots = ball(oldG, v, oldDistA[v], dirty, roots)
			roots = ball(g, v, newDistA[v], dirty, roots)
		}
		over := make([]bool, n)
		for _, w := range round.Oversized {
			over[w] = true
		}
		bad := make([]bool, len(roots))
		parallel.For(len(roots), func(i int) {
			w := roots[i]
			bad[i] = (clusterSize(g, w, newDistA) > trace.Bound) != over[w]
		})
		for i, b := range bad {
			if b {
				return fmt.Errorf("cluster: cover trace round %d diverges at root %d (oversized set changed)", ri, roots[i])
			}
		}
	}
	return nil
}
