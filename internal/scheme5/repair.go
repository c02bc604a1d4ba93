// Incremental repair of a Theorem 11 scheme after edge updates. The repair
// keeps everything the updates provably cannot have changed - the Lemma 6
// coloring, clean vicinities, clean cluster trees, clean Lemma 8 sequences,
// clean labels - and recomputes only the dirty components, so its cost is
// proportional to the churn footprint rather than to n. The output is
// bit-identical to a from-scratch New on the updated graph whenever the
// randomized choices of the original build (landmark set, coloring) remain
// valid there; when they do not, Repair fails with ErrEscalate and the
// caller falls back to a full rebuild.
//
// Dirtiness rules (each one proved against the canonical tie-breaks of the
// search kernels):
//
//   - A vicinity B(u) can change only if an updated edge has an endpoint in
//     the settled set of u's truncated search (the touch index's forward
//     lists): every relaxation the old search performed or rejected stays
//     identical otherwise, and a new shorter path into the vicinity would
//     have to enter through a settled vertex. Flagged vicinities are rebuilt
//     (one truncated search each) and compared; only the ones that actually
//     changed cascade into relay, coloring and sequence dirtiness.
//   - The landmark set A is randomized (Lemma 4 center cover): its sampling
//     decisions depend only on the per-round oversized sets, so the recorded
//     trajectory is replay-verified on the new graph - re-measuring only the
//     intermediate clusters the updates can have changed - and any drift
//     escalates (cluster.VerifyCoverTrace).
//   - A cluster C_A(w) can change only if w is in the old or new bunch of an
//     update endpoint or of a vertex whose (p_A, d(., A)) entry moved
//     (cluster.RepairLandmarks).
//   - A stored canonical distance or first hop (a, w) can change only if an
//     updated edge lies on an old or new canonical a-w geodesic, testable as
//     d(a,x) + w(x,y) + d(y,w) == d(a,w) for an orientation of the edge; a
//     target w none of whose row entries pass the cheaper one-sided test
//     d(w,x) + w(x,y) == d(w,y) (in old and new graph) has a bit-identical
//     row. Every row a Lemma 8 sequence consults belongs to a vertex on the
//     canonical source-target path, and the test firing at such a vertex
//     forces it to fire at the source (splice the clean canonical prefix in
//     front of the tight path), so testing the source pair alone is sound.
//   - Inserted or weight-decreased edges can additionally shorten the
//     d(x, z) values buildSequence compares against its doubling threshold
//     for z just outside B(x); a ball test (d_new(x, e) within the old
//     vicinity radius plus one max edge weight) over-approximates the
//     affected x.
//   - A label (p_A(v), alpha, first-edge port) can change only if v's
//     nearest-landmark entry moved, an updated edge lies on an old or new
//     canonical p_A(v)-v geodesic, or p_A(v) is an update endpoint (edge
//     updates renumber the ports at their endpoints).
package scheme5

import (
	"errors"
	"fmt"
	"math"

	"compactroute/internal/cluster"
	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/schemeutil"
	"compactroute/internal/treeroute"
	"compactroute/internal/vicinity"
)

// ErrEscalate marks a repair that detected a condition only a full rebuild
// can handle (the original randomized choices are invalid on the new graph,
// or a structural precondition broke). The scheme is untouched; callers
// fall back to a from-scratch build.
var ErrEscalate = errors.New("scheme5: repair requires a full rebuild")

// ErrNotRepairable marks a scheme without repair state (e.g. loaded from a
// snapshot, which does not carry the touch index).
var ErrNotRepairable = errors.New("scheme5: scheme has no repair state")

// Repairable bundles a Scheme with the construction-time state the
// incremental repair path needs: the touch index of its vicinity family,
// the center-cover sampling trajectory, the path source of its graph, and
// the build parameters.
type Repairable struct {
	s      *Scheme
	touch  *vicinity.Touch
	trace  *cluster.CoverTrace
	paths  graph.PathSource
	params Params
	bound  int // Lemma 4 cluster-size bound of the center cover
}

// RepairStats reports the dirty-set sizes of one repair.
type RepairStats struct {
	Edges         int // applied (non-no-op) edge updates
	DirtyVics     int // vicinities recomputed (touch-index dirty set)
	ChangedVics   int // recomputed vicinities that actually differed
	DirtyClusters int // cluster trees recomputed
	DirtySeqs     int // Lemma 8 sequences rebuilt
	DirtyLabels   int // labels recomputed
	TightTargets  int // targets whose canonical row an update could touch
}

// clusterBound returns the Lemma 4 bound the Theorem 11 center cover was
// built with: boundFactor * n / s for s = min(n, ceil(n^{2/3})).
func clusterBound(n int) int {
	s := int(math.Ceil(math.Pow(float64(n), 2.0/3.0)))
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	bound := 4 * n / s
	if bound < 1 {
		bound = 1
	}
	return bound
}

// NewRepairable runs the full preprocessing phase like New and additionally
// records the repair state. The wrapped scheme is bit-identical to New's.
func NewRepairable(g *graph.Graph, paths graph.PathSource, params Params) (*Repairable, error) {
	s, touch, trace, err := build(g, paths, params, true)
	if err != nil {
		return nil, err
	}
	params.fill()
	return &Repairable{s: s, touch: touch, trace: trace, paths: paths, params: params,
		bound: clusterBound(g.N())}, nil
}

// Scheme returns the wrapped scheme.
func (r *Repairable) Scheme() *Scheme { return r.s }

// Touch exposes the reverse touch index (for tests and diagnostics).
func (r *Repairable) Touch() *vicinity.Touch { return r.touch }

// edgeChange is one classified update between the old and the new graph.
type edgeChange struct {
	x, y         graph.Vertex
	inOld, inNew bool
	wOld, wNew   float64
}

// Repair produces a Repairable over newG whose scheme is bit-identical to
// a from-scratch NewRepairable(newG, newPaths, params), rebuilding only
// dirty components. edges lists the endpoint pairs of every update applied
// between the old graph and newG (extra pairs are tolerated; no-ops are
// skipped). newPaths must be a canonical path source over newG. The
// receiver is never modified; on error (ErrEscalate wrapped with the
// reason) the caller should rebuild from scratch.
//
// Every distance row the repair reads comes from a path source: old rows
// from the receiver's (the one it was built or repaired with), new rows from
// newPaths, which the Lemma 8 sequence rebuild reads as well. A newPaths
// carried from the receiver's cache (graph.LazyAPSP.Carry) holds most of
// those rows already, shared or patched, so the repair runs few or no full
// searches.
func (r *Repairable) Repair(newG *graph.Graph, newPaths graph.PathSource, edges [][2]graph.Vertex) (*Repairable, RepairStats, error) {
	var st RepairStats
	s := r.s
	n := s.g.N()
	if newG.N() != n {
		return nil, st, fmt.Errorf("%w: vertex count changed %d -> %d", ErrEscalate, n, newG.N())
	}
	// Classify the updates against the two graphs; drop no-ops.
	var changes []edgeChange
	endpointSet := make([]bool, n)
	var endpoints []graph.Vertex
	anyInsert := false
	for _, e := range edges {
		x, y := e[0], e[1]
		if x < 0 || y < 0 || int(x) >= n || int(y) >= n || x == y {
			return nil, st, fmt.Errorf("%w: invalid edge {%d,%d}", ErrEscalate, x, y)
		}
		c := edgeChange{x: x, y: y}
		if w, err := s.g.EdgeWeight(x, y); err == nil {
			c.inOld, c.wOld = true, w
		}
		if w, err := newG.EdgeWeight(x, y); err == nil {
			c.inNew, c.wNew = true, w
		}
		if (!c.inOld && !c.inNew) || (c.inOld && c.inNew && c.wOld == c.wNew) {
			continue // no-op
		}
		if c.inNew && (!c.inOld || c.wNew < c.wOld) {
			anyInsert = true
		}
		changes = append(changes, c)
		for _, v := range [2]graph.Vertex{x, y} {
			if !endpointSet[v] {
				endpointSet[v] = true
				endpoints = append(endpoints, v)
			}
		}
	}
	st.Edges = len(changes)
	if len(changes) == 0 {
		// Nothing changed; the graphs must agree.
		if newG.Fingerprint() != s.g.Fingerprint() {
			return nil, st, fmt.Errorf("%w: graphs differ but no listed edge changed", ErrEscalate)
		}
		out := *r
		return &out, st, nil
	}

	// --- Center cover: fail cheap. ----------------------------------------
	// The center cover is randomized: its sampling decisions depend on the
	// per-round oversized sets, which the updates may have changed. Verify
	// the recorded trajectory replays identically on the new graph (so a
	// from-scratch build would pick the same A); otherwise escalate. The
	// check reads only the two graphs, so it runs before any stage whose
	// work an escalation would throw away.
	if err := cluster.VerifyCoverTrace(s.g, newG, r.trace, endpoints); err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrEscalate, err)
	}

	// --- Vicinities: touch-index dirty set, rebuild in place. -------------
	// The touch index over-approximates: it flags every vicinity whose
	// truncated search settled an update endpoint, but most of those rebuild
	// bit-identical (the settled edge was not on any shortest path the search
	// kept). Rebuilding is cheap - one truncated search each - so rebuild them
	// all, then compare: only the vicinities that actually changed cascade
	// into relay, coloring and sequence dirtiness. An unchanged vicinity keeps
	// the old Set pointer (observationally identical, shares memory); its
	// fresh settled list still feeds the touch update, because the search
	// footprint can move even when the member set does not.
	dirtyVics := r.touch.DirtyCenters(endpoints)
	st.DirtyVics = len(dirtyVics)
	newVics := make([]*vicinity.Set, n)
	copy(newVics, s.vc.Vics)
	newSettled := make(map[graph.Vertex][]graph.Vertex, len(dirtyVics))
	settledSl := make([][]graph.Vertex, len(dirtyVics))
	changedSl := make([]bool, len(dirtyVics))
	if err := parallel.ForErr(len(dirtyVics), func(i int) error {
		u := dirtyVics[i]
		set, settled, err := vicinity.BuildTouch(newG, u, s.vc.L)
		if err != nil {
			return err
		}
		settledSl[i] = settled
		if set.Equal(s.vc.Vics[u]) {
			return nil
		}
		changedSl[i] = true
		newVics[u] = set
		return nil
	}); err != nil {
		return nil, st, fmt.Errorf("%w: vicinity rebuild: %v", ErrEscalate, err)
	}
	var changedVics []graph.Vertex
	for i, u := range dirtyVics {
		newSettled[u] = settledSl[i]
		if changedSl[i] {
			changedVics = append(changedVics, u)
		}
	}
	st.ChangedVics = len(changedVics)
	vicDirty := make([]bool, n)
	for _, u := range changedVics {
		vicDirty[u] = true
	}

	// --- Coloring: recompute cheaply, keep only if unchanged. -------------
	// The coloring is a pure function of (n, q, member sets, seed); if no
	// vicinity actually changed, the member sets are identical and the old
	// verified Coloring survives without recomputation. Otherwise recompute
	// and compare: any difference means a from-scratch build would color
	// differently, so bit-identity demands escalation.
	if len(changedVics) > 0 {
		col2, err := coloring.New(n, s.vc.Q, vicinity.MemberSets(newVics), r.params.Seed)
		if err != nil {
			return nil, st, fmt.Errorf("%w: coloring no longer satisfiable: %v", ErrEscalate, err)
		}
		for v := 0; v < n; v++ {
			if col2.Of(graph.Vertex(v)) != s.vc.Col.Of(graph.Vertex(v)) {
				return nil, st, fmt.Errorf("%w: coloring changed at vertex %d", ErrEscalate, v)
			}
		}
	}
	newVc, err := schemeutil.RepairVicinityColoring(s.vc, newVics, changedVics)
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrEscalate, err)
	}

	// --- Landmarks, clusters, forest. -------------------------------------
	newLms, dirtyRoots, err := cluster.RepairLandmarks(newG, s.lms, endpoints, r.bound)
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrEscalate, err)
	}
	st.DirtyClusters = len(dirtyRoots)
	newTrees := make([]*treeroute.Tree, n)
	copy(newTrees, s.fores.Trees)
	if err := parallel.ForErr(len(dirtyRoots), func(i int) error {
		w := dirtyRoots[i]
		ms := newLms.Cluster(w)
		if len(ms) == 0 {
			newTrees[w] = nil
			return nil
		}
		tr, err := treeroute.FromMembers(newG, ms, func(m cluster.Member) treeroute.Edge {
			return treeroute.Edge{V: m.V, Parent: m.Parent}
		})
		if err != nil {
			return fmt.Errorf("cluster tree %d: %w", w, err)
		}
		newTrees[w] = tr
		return nil
	}); err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrEscalate, err)
	}
	newFores := &schemeutil.ClusterForest{L: newLms, Trees: newTrees}

	// --- Canonical-row analysis for the Lemma 8 sequences and labels. -----
	// Distance rows come from the two path sources (the PathSource contract
	// makes them ShortestPaths' values): the old rows are cached from the
	// last generation, and the new ones stay cached for the sequence
	// rebuild below.
	oldRow := make(map[graph.Vertex]graph.Row, len(endpoints))
	newRow := make(map[graph.Vertex]graph.Row, len(endpoints))
	for _, e := range endpoints {
		oldRow[e] = r.paths.Row(e)
		newRow[e] = newPaths.Row(e)
	}
	// tightAt reports whether some changed edge is tight in the canonical
	// shortest-path DAG of source a (old or new graph): the one-sided test
	// whose failure proves a's entire row is bit-identical.
	tightAt := func(a graph.Vertex) bool {
		for _, c := range changes {
			if c.inOld {
				dx, dy := oldRow[c.x].Dist(a), oldRow[c.y].Dist(a)
				if dx+c.wOld == dy || dy+c.wOld == dx {
					return true
				}
			}
			if c.inNew {
				dx, dy := newRow[c.x].Dist(a), newRow[c.y].Dist(a)
				if dx+c.wNew == dy || dy+c.wNew == dx {
					return true
				}
			}
		}
		return false
	}
	// Ball test for inserted/decreased edges: d(x, z) consultations just
	// outside B(x) can shorten without B(x) changing. thr over-approximates
	// how far outside the vicinity those consultations reach.
	var ballDirty []bool
	if anyInsert {
		maxWOld := 0.0
		for u := 0; u < n; u++ {
			newG.Neighbors(graph.Vertex(u), func(_ graph.Port, _ graph.Vertex, w float64) bool {
				if w > maxWOld {
					maxWOld = w
				}
				return true
			})
			s.g.Neighbors(graph.Vertex(u), func(_ graph.Port, _ graph.Vertex, w float64) bool {
				if w > maxWOld {
					maxWOld = w
				}
				return true
			})
		}
		ballDirty = make([]bool, n)
		for _, c := range changes {
			if !c.inNew || (c.inOld && c.wNew >= c.wOld) {
				continue
			}
			for _, e := range [2]graph.Vertex{c.x, c.y} {
				row := newRow[e]
				for x := 0; x < n; x++ {
					if !ballDirty[x] && row.Dist(graph.Vertex(x)) <= s.vc.Vics[x].MaxDist()+maxWOld {
						ballDirty[x] = true
					}
				}
			}
		}
	}
	// Per-target dirty sets: only targets whose own row a changed edge can
	// touch need one; for each, the vertices with a dirty canonical pair to
	// the target. The test at the source alone covers every row the sequence
	// construction consults: each consultation is (y, w) for a vertex y on
	// the canonical u-w path (exitEdge follows First(., w) chains; a relay is
	// appended but never consulted), and if a changed edge lies on an old or
	// new shortest y-w path, splicing the clean canonical u-y prefix in front
	// extends it to a shortest u-w path through the same edge - so the test
	// fires at u too, and a clean source pair certifies the whole walk.
	dirtyByTarget := make(map[graph.Vertex][]bool)
	for _, w := range s.lms.A {
		if !tightAt(w) {
			continue
		}
		oldW := r.paths.Row(w)
		newW := newPaths.Row(w)
		dw := make([]bool, n)
		for _, c := range changes {
			if c.inOld {
				rx, ry := oldRow[c.x], oldRow[c.y]
				dxw, dyw := rx.Dist(w), ry.Dist(w)
				for a := graph.Vertex(0); int(a) < n; a++ {
					if !dw[a] && (rx.Dist(a)+c.wOld+dyw == oldW.Dist(a) || ry.Dist(a)+c.wOld+dxw == oldW.Dist(a)) {
						dw[a] = true
					}
				}
			}
			if c.inNew {
				rx, ry := newRow[c.x], newRow[c.y]
				dxw, dyw := rx.Dist(w), ry.Dist(w)
				for a := graph.Vertex(0); int(a) < n; a++ {
					if !dw[a] && (rx.Dist(a)+c.wNew+dyw == newW.Dist(a) || ry.Dist(a)+c.wNew+dxw == newW.Dist(a)) {
						dw[a] = true
					}
				}
			}
		}
		dirtyByTarget[w] = dw
	}
	st.TightTargets = len(dirtyByTarget)
	seqDirty := func(u, w graph.Vertex, wps []graph.Vertex) bool {
		if ballDirty != nil {
			if ballDirty[u] {
				return true
			}
			for _, wp := range wps {
				if ballDirty[wp] {
					return true
				}
			}
		}
		dw := dirtyByTarget[w]
		return dw != nil && dw[u]
	}

	// --- Lemma 8 sequences. -----------------------------------------------
	newInter, rebuilt, err := s.inter.Repair(core.InterRepairConfig{
		Graph: newG, Paths: newPaths, Vics: newVics, Reps: newVc.Reps,
		VicDirty: vicDirty, SeqDirty: seqDirty,
	})
	if err != nil {
		return nil, st, fmt.Errorf("%w: %v", ErrEscalate, err)
	}
	st.DirtySeqs = rebuilt

	// --- Labels. ----------------------------------------------------------
	_, alphaOf := landmarkParts(newLms.A, s.vc.Q)
	newLabels := make([]label, n)
	copy(newLabels, s.labels)
	dirtyLabels := 0
	for v := 0; v < n; v++ {
		vv := graph.Vertex(v)
		pa := s.lms.P[v]
		d := newLms.P[v] != pa || newLms.DistA[v] != s.lms.DistA[v] ||
			(pa >= 0 && endpointSet[pa])
		if !d {
			// An updated edge on an old or new canonical p_A(v)-v geodesic:
			// d(pa, e1) + w + d(e2, v) == d(pa, v) = d(v, A).
			for _, c := range changes {
				if c.inOld && (oldRow[c.x].Dist(pa)+c.wOld+oldRow[c.y].Dist(vv) == s.lms.DistA[v] ||
					oldRow[c.y].Dist(pa)+c.wOld+oldRow[c.x].Dist(vv) == s.lms.DistA[v]) {
					d = true
					break
				}
				if c.inNew && (newRow[c.x].Dist(pa)+c.wNew+newRow[c.y].Dist(vv) == newLms.DistA[v] ||
					newRow[c.y].Dist(pa)+c.wNew+newRow[c.x].Dist(vv) == newLms.DistA[v]) {
					d = true
					break
				}
			}
		}
		if !d {
			continue
		}
		dirtyLabels++
		npa := newLms.P[v]
		if npa == graph.NoVertex {
			return nil, st, fmt.Errorf("%w: vertex %d lost all landmarks", ErrEscalate, v)
		}
		lbl := label{pa: npa, alpha: alphaOf[npa], paPort: graph.NoPort}
		if npa != vv {
			z := newPaths.First(npa, vv)
			lbl.paPort = newG.PortTo(npa, z)
			if lbl.paPort == graph.NoPort {
				return nil, st, fmt.Errorf("%w: first edge (%d,%d) missing", ErrEscalate, npa, z)
			}
		}
		newLabels[v] = lbl
	}
	st.DirtyLabels = dirtyLabels

	// --- Assemble. --------------------------------------------------------
	ns := &Scheme{g: newG, eps: s.eps, vc: newVc, lms: newLms, fores: newFores,
		inter: newInter, labels: newLabels}
	return &Repairable{
		s:      ns,
		touch:  r.touch.Updated(newSettled),
		trace:  r.trace,
		paths:  newPaths,
		params: r.params,
		bound:  r.bound,
	}, st, nil
}
