// Package cluster implements the bunches and clusters of Thorup and Zwick
// used throughout the paper (Section 2), and the center-cover construction of
// Lemma 4 that finds a landmark set A whose clusters are all small.
//
// For a landmark set A, p_A(v) is the nearest landmark of v (ties broken by
// smaller vertex id) and d(v, A) = d(v, p_A(v)). The cluster of w is
// C_A(w) = {w} u {v : d(w, v) < d(v, A)} and the bunch of v is
// B_A(v) = {v} u {w : d(w, v) < d(v, A)}, so w in B_A(v) iff v in C_A(w).
// Centers are included explicitly (the convention Section 5 of the paper
// needs for the degenerate level L_0 = V, where B_{L_0}(v) = {v}).
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
)

// Member is one vertex of a cluster together with its position in the
// cluster's shortest-path tree.
type Member struct {
	V      graph.Vertex
	Dist   float64
	Parent graph.Vertex // NoVertex for the cluster's root
}

// Landmarks holds a landmark set and everything derived from it.
type Landmarks struct {
	A        []graph.Vertex
	inA      []bool
	P        []graph.Vertex // p_A(v)
	DistA    []float64      // d(v, A)
	clusters [][]Member     // clusters[w] = C_A(w), root first
	bunches  [][]graph.Vertex
}

// New computes p_A, d(.,A), every cluster and every bunch for the landmark
// set a over g. The set must be non-empty.
func New(g *graph.Graph, a []graph.Vertex) (*Landmarks, error) {
	if len(a) == 0 {
		return nil, fmt.Errorf("cluster: empty landmark set")
	}
	n := g.N()
	l := &Landmarks{
		A:     append([]graph.Vertex(nil), a...),
		inA:   make([]bool, n),
		P:     make([]graph.Vertex, n),
		DistA: make([]float64, n),
	}
	sort.Slice(l.A, func(i, j int) bool { return l.A[i] < l.A[j] })
	for i := 1; i < len(l.A); i++ {
		if l.A[i] == l.A[i-1] {
			return nil, fmt.Errorf("cluster: duplicate landmark %d", l.A[i])
		}
	}
	for _, v := range l.A {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("cluster: landmark %d out of range", v)
		}
		l.inA[v] = true
	}
	l.nearestLandmarks(g)
	l.buildClusters(g)
	return l, nil
}

// Nearest computes, for every vertex of g, the nearest member of a (ties in
// distance broken toward the smaller member id, the paper's lexicographic
// convention) and the distance to it, via one multi-source Dijkstra.
func Nearest(g *graph.Graph, a []graph.Vertex) (p []graph.Vertex, dist []float64, err error) {
	if len(a) == 0 {
		return nil, nil, fmt.Errorf("cluster: empty landmark set")
	}
	for _, v := range a {
		if v < 0 || int(v) >= g.N() {
			return nil, nil, fmt.Errorf("cluster: landmark %d out of range", v)
		}
	}
	l := &Landmarks{
		P:     make([]graph.Vertex, g.N()),
		DistA: make([]float64, g.N()),
	}
	l.A = append(l.A, a...)
	l.nearestLandmarks(g)
	return l.P, l.DistA, nil
}

// nearestLandmarks runs a multi-source Dijkstra from A. Ties in distance are
// broken toward the smaller landmark id, matching the paper's lexicographic
// convention for p_A.
func (l *Landmarks) nearestLandmarks(g *graph.Graph) {
	n := g.N()
	for v := 0; v < n; v++ {
		l.DistA[v] = math.Inf(1)
		l.P[v] = graph.NoVertex
	}
	type item struct {
		dist float64
		p    graph.Vertex // landmark
		v    graph.Vertex
	}
	lessItem := func(a, b item) bool {
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		if a.p != b.p {
			return a.p < b.p
		}
		return a.v < b.v
	}
	var heap []item
	push := func(it item) {
		heap = append(heap, it)
		i := len(heap) - 1
		for i > 0 {
			par := (i - 1) / 2
			if !lessItem(heap[i], heap[par]) {
				break
			}
			heap[i], heap[par] = heap[par], heap[i]
			i = par
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			lc, rc, sm := 2*i+1, 2*i+2, i
			if lc < len(heap) && lessItem(heap[lc], heap[sm]) {
				sm = lc
			}
			if rc < len(heap) && lessItem(heap[rc], heap[sm]) {
				sm = rc
			}
			if sm == i {
				break
			}
			heap[i], heap[sm] = heap[sm], heap[i]
			i = sm
		}
		return top
	}
	better := func(d float64, p graph.Vertex, v graph.Vertex) bool {
		if d != l.DistA[v] {
			return d < l.DistA[v]
		}
		return p < l.P[v]
	}
	for _, a := range l.A {
		l.DistA[a] = 0
		l.P[a] = a
		push(item{dist: 0, p: a, v: a})
	}
	for len(heap) > 0 {
		it := pop()
		if it.dist != l.DistA[it.v] || it.p != l.P[it.v] {
			continue
		}
		g.Neighbors(it.v, func(_ graph.Port, x graph.Vertex, w float64) bool {
			if nd := it.dist + w; better(nd, it.p, x) {
				l.DistA[x] = nd
				l.P[x] = it.p
				push(item{dist: nd, p: it.p, v: x})
			}
			return true
		})
	}
}

// buildClusters runs, for every w, a Dijkstra pruned to the cluster
// condition d(w, v) < d(v, A). The standard Thorup-Zwick argument shows the
// pruned search reaches every cluster member along a shortest path that
// stays inside the cluster, so the parents form the cluster tree T_{C_A(w)}.
//
// The per-root searches are independent and run on the shared worker pool;
// each writes only clusters[w]. The bunches (the transpose of the cluster
// relation) are merged sequentially in root order afterwards, so the result
// is identical for every worker count.
func (l *Landmarks) buildClusters(g *graph.Graph) {
	l.clusters = make([][]Member, g.N())
	parallel.For(g.N(), func(wi int) { l.clusters[wi] = l.searchCluster(g, graph.Vertex(wi)) })
	l.bunches = transposeBunches(l.clusters)
}

// searchCluster returns C_A(w), root first, in the pop order of the
// Dijkstra search from w pruned to the cluster condition.
func (l *Landmarks) searchCluster(g *graph.Graph, w graph.Vertex) []Member {
	ws := g.AcquireWorkspace()
	defer g.ReleaseWorkspace(ws)
	ws.Start(w)
	var members []Member
	for {
		u, d, ok := ws.Pop()
		if !ok {
			return members
		}
		members = append(members, Member{V: u, Dist: d, Parent: ws.Parent(u)})
		g.Neighbors(u, func(_ graph.Port, x graph.Vertex, ew float64) bool {
			if nd := d + ew; nd < l.DistA[x] { // cluster condition (strict)
				ws.Relax(x, nd, u)
			}
			return true
		})
	}
}

// transposeBunches returns the bunches of a cluster family, cut from one
// slab: B_A(v) lists every root whose cluster holds v, ascending because the
// roots are visited in order. Member ids must lie in [0, len(clusters)).
func transposeBunches(clusters [][]Member) [][]graph.Vertex {
	n := len(clusters)
	next := make([]int, n+1) // next[v]: the slab slot of v's next bunch entry
	for _, ms := range clusters {
		for _, m := range ms {
			next[m.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		next[v+1] += next[v]
	}
	slab := make([]graph.Vertex, next[n])
	bunches := make([][]graph.Vertex, n)
	for v := range bunches {
		bunches[v] = slab[next[v]:next[v+1]:next[v+1]]
	}
	for w, ms := range clusters {
		for _, m := range ms {
			slab[next[m.V]] = graph.Vertex(w)
			next[m.V]++
		}
	}
	return bunches
}

// InA reports whether v is a landmark.
func (l *Landmarks) InA(v graph.Vertex) bool { return l.inA[v] }

// Cluster returns C_A(w) with the root first. The slice is owned by l.
func (l *Landmarks) Cluster(w graph.Vertex) []Member { return l.clusters[w] }

// Bunch returns B_A(v) in increasing id order, which transposeBunches gives
// by construction. The slice is owned by l.
func (l *Landmarks) Bunch(v graph.Vertex) []graph.Vertex { return l.bunches[v] }

// MaxClusterSize returns max_w |C_A(w)|.
func (l *Landmarks) MaxClusterSize() int {
	maxSz := 0
	for _, c := range l.clusters {
		if len(c) > maxSz {
			maxSz = len(c)
		}
	}
	return maxSz
}

// CenterCover implements Lemma 4: it returns Landmarks whose cluster sizes
// are all at most boundFactor*n/s (boundFactor = 4 matches the paper). The
// construction follows Thorup-Zwick's centers algorithm: repeatedly sample
// vertices whose clusters are still too large into A. A final deterministic
// step promotes any stragglers to landmarks (a landmark's cluster is just
// itself), so the returned set always satisfies the bound.
func CenterCover(g *graph.Graph, s int, seed int64) (*Landmarks, error) {
	l, _, err := CenterCoverTrace(g, s, seed)
	return l, err
}

// CoverRound records one effective sampling round of CenterCover: how many
// landmarks (in sampling order) were in A after the round's draws, and which
// roots' clusters still exceeded the bound under that intermediate set.
type CoverRound struct {
	ALen      int
	Oversized []graph.Vertex
}

// CoverTrace records the randomized trajectory of one CenterCover run. The
// sampling decisions are a pure function of the seed and of the sequence of
// oversized sets, so a run on a different graph produces the same landmark
// set if and only if every recorded round's oversized set is reproduced
// there - the check VerifyCoverTrace performs for the incremental repair
// path.
type CoverTrace struct {
	S      int
	Bound  int
	Order  []graph.Vertex // the final A in sampling order (prefixes = rounds)
	Rounds []CoverRound
}

// CenterCoverTrace is CenterCover recording the sampling trajectory.
func CenterCoverTrace(g *graph.Graph, s int, seed int64) (*Landmarks, *CoverTrace, error) {
	const boundFactor = 4
	n := g.N()
	if s < 1 {
		return nil, nil, fmt.Errorf("cluster: need s >= 1, got %d", s)
	}
	if s > n {
		s = n
	}
	bound := boundFactor * n / s
	if bound < 1 {
		bound = 1
	}
	trace := &CoverTrace{S: s, Bound: bound}
	r := rand.New(rand.NewSource(seed))
	inA := make([]bool, n)
	var a []graph.Vertex
	oversized := make([]graph.Vertex, n)
	for i := range oversized {
		oversized[i] = graph.Vertex(i)
	}
	var l *Landmarks
	maxRounds := 4*log2(n) + 8
	for round := 0; round < maxRounds && len(oversized) > 0; round++ {
		p := float64(s) / float64(len(oversized))
		if p > 1 {
			p = 1
		}
		grew := false
		for _, w := range oversized {
			if !inA[w] && r.Float64() < p {
				inA[w] = true
				a = append(a, w)
				grew = true
			}
		}
		if !grew && len(a) == 0 {
			continue
		}
		var err error
		l, err = New(g, a)
		if err != nil {
			return nil, nil, err
		}
		oversized = oversized[:0]
		for w := 0; w < n; w++ {
			if len(l.clusters[w]) > bound {
				oversized = append(oversized, graph.Vertex(w))
			}
		}
		if grew {
			trace.Rounds = append(trace.Rounds, CoverRound{
				ALen:      len(a),
				Oversized: append([]graph.Vertex(nil), oversized...),
			})
		}
	}
	if len(oversized) > 0 || l == nil {
		// Deterministic finish: promoting a vertex to landmark makes its own
		// cluster trivial and can only shrink others.
		for _, w := range oversized {
			if !inA[w] {
				inA[w] = true
				a = append(a, w)
			}
		}
		var err error
		l, err = New(g, a)
		if err != nil {
			return nil, nil, err
		}
		if got := l.MaxClusterSize(); got > bound {
			return nil, nil, fmt.Errorf("cluster: center cover failed, max cluster %d > bound %d", got, bound)
		}
	}
	trace.Order = append([]graph.Vertex(nil), a...)
	return l, trace, nil
}

func log2(n int) int {
	l := 0
	for x := 1; x < n; x *= 2 {
		l++
	}
	return l
}
