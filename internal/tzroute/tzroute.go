// Package tzroute implements the (4k-5)-stretch compact routing scheme of
// Thorup and Zwick (SPAA'01), which the paper both compares against (the
// stretch-3 / O~(sqrt n) and stretch-7 / O~(n^{1/3}) rows of Table 1) and
// builds on in Theorem 16.
//
// The scheme samples a hierarchy A_0 = V, A_1, ..., A_{k-1} (A_1 via the
// Lemma 4 center cover, higher levels by n^{-1/k}-sampling), defines
// p_i(v) as the nearest A_i-landmark (with the standard "inherit from the
// level above on ties" convention so v always lies in the cluster of
// p_i(v)), and builds a routable shortest-path tree over every cluster
// C(w) = {v : d(w,v) < d(v, A_{level(w)+1})}. The label of v carries
// (p_i(v), tree label of v in T(p_i(v))) for all i; routing walks the label
// upward until it finds the first p_i(v) whose cluster contains the current
// vertex and descends that tree.
package tzroute

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"compactroute/internal/cluster"
	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/treeroute"
)

// Params configures the hierarchy.
type Params struct {
	K    int // number of levels; stretch is 4k-5
	Seed int64
}

// Hierarchy is the sampled Thorup-Zwick structure, shared by the baseline
// scheme here and by Theorem 16 (package scheme4k).
type Hierarchy struct {
	G *graph.Graph
	K int
	// Levels[i] is A_i sorted by id; Level(v) is the largest i with v in A_i.
	Levels [][]graph.Vertex
	level  []int32
	// P[i][v] = p_i(v) after tie-chaining; D[i][v] = d(v, A_i).
	P [][]graph.Vertex
	D [][]float64
	// Trees[w] is the routable shortest-path tree spanning C(w).
	Trees []*treeroute.Tree
	// bunch[u] = sorted list of w with u in C(w); bunchD[u][i] = d(u,
	// bunch[u][i]). Parallel sorted arrays instead of per-vertex maps: the
	// InBunch probe is the innermost operation of Prepare, and a binary
	// search over a dense id array beats a map probe on every graph size the
	// benchmarks cover.
	bunch  [][]graph.Vertex
	bunchD [][]float64
}

// NewHierarchy samples and preprocesses the structure.
func NewHierarchy(g *graph.Graph, params Params) (*Hierarchy, error) {
	n := g.N()
	k := params.K
	if k < 2 {
		return nil, fmt.Errorf("tzroute: need k >= 2, got %d", k)
	}
	h := &Hierarchy{G: g, K: k, Levels: make([][]graph.Vertex, k), level: make([]int32, n)}
	// A_0 = V.
	all := make([]graph.Vertex, n)
	for i := range all {
		all[i] = graph.Vertex(i)
	}
	h.Levels[0] = all
	// A_1 via Lemma 4: cluster bound 4n/s = O(n^{1/k}) with s = n^{1-1/k}.
	s1 := int(math.Ceil(math.Pow(float64(n), 1-1/float64(k))))
	cc, err := cluster.CenterCover(g, s1, params.Seed)
	if err != nil {
		return nil, fmt.Errorf("tzroute: level 1: %w", err)
	}
	h.Levels[1] = cc.A
	// Higher levels: keep each vertex with probability n^{-1/k}.
	r := rand.New(rand.NewSource(params.Seed + 1))
	p := math.Pow(float64(n), -1/float64(k))
	for i := 2; i < k; i++ {
		var next []graph.Vertex
		for _, v := range h.Levels[i-1] {
			if r.Float64() < p {
				next = append(next, v)
			}
		}
		if len(next) == 0 { // keep the hierarchy non-degenerate
			next = []graph.Vertex{h.Levels[i-1][0]}
		}
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		h.Levels[i] = next
	}
	for i := 0; i < k; i++ {
		for _, v := range h.Levels[i] {
			h.level[v] = int32(i)
		}
	}
	// p_i / d_i with downward tie-chaining: p_i(v) = p_{i+1}(v) whenever
	// d(v, A_i) = d(v, A_{i+1}), which guarantees v in C(p_i(v)).
	h.P = make([][]graph.Vertex, k)
	h.D = make([][]float64, k)
	if err := parallel.ForErr(k, func(i int) error {
		pi, di, err := cluster.Nearest(g, h.Levels[i])
		if err != nil {
			return fmt.Errorf("tzroute: nearest level %d: %w", i, err)
		}
		h.P[i], h.D[i] = pi, di
		return nil
	}); err != nil {
		return nil, err
	}
	for i := k - 2; i >= 0; i-- {
		for v := 0; v < n; v++ {
			if h.D[i][v] == h.D[i+1][v] {
				h.P[i][v] = h.P[i+1][v]
			}
		}
	}
	if err := h.buildClusters(); err != nil {
		return nil, err
	}
	return h, nil
}

// buildClusters computes C(w) = {v : d(w,v) < d(v, A_{level(w)+1})} for every
// w via a pruned Dijkstra (threshold infinity at the top level) and turns
// each into a routable tree.
//
// The per-root searches run on the shared worker pool; each writes only its
// own tree and member list. The bunch transpose is merged sequentially in
// root order so the structure is independent of the worker count.
func (h *Hierarchy) buildClusters() error {
	g := h.G
	n := g.N()
	h.Trees = make([]*treeroute.Tree, n)
	h.bunch = make([][]graph.Vertex, n)
	h.bunchD = make([][]float64, n)
	type clusterMembers struct {
		vs []graph.Vertex
		ds []float64
	}
	members := make([]clusterMembers, n)
	if err := parallel.ForErr(n, func(wi int) error {
		w := graph.Vertex(wi)
		lvl := int(h.level[w])
		var thr []float64
		if lvl+1 < h.K {
			thr = h.D[lvl+1]
		}
		ws := g.AcquireWorkspace()
		defer g.ReleaseWorkspace(ws)
		ws.Start(w)
		var edges []treeroute.Edge
		for {
			u, d, ok := ws.Pop()
			if !ok {
				break
			}
			edges = append(edges, treeroute.Edge{V: u, Parent: ws.Parent(u)})
			members[wi].vs = append(members[wi].vs, u)
			members[wi].ds = append(members[wi].ds, d)
			g.Neighbors(u, func(_ graph.Port, x graph.Vertex, ew float64) bool {
				nd := d + ew
				if thr != nil && nd >= thr[x] {
					return true
				}
				ws.Relax(x, nd, u)
				return true
			})
		}
		tr, err := treeroute.New(g, edges)
		if err != nil {
			return fmt.Errorf("tzroute: cluster tree %d: %w", w, err)
		}
		h.Trees[wi] = tr
		return nil
	}); err != nil {
		return err
	}
	// Transposing in ascending root order leaves every bunch[v] sorted by id
	// with bunchD[v] parallel - no per-vertex sort or map build needed.
	for wi := 0; wi < n; wi++ {
		w := graph.Vertex(wi)
		for i, v := range members[wi].vs {
			h.bunch[v] = append(h.bunch[v], w)
			h.bunchD[v] = append(h.bunchD[v], members[wi].ds[i])
		}
	}
	return nil
}

// bunchIdx returns w's position in the sorted bunch B(u), or -1.
func (h *Hierarchy) bunchIdx(u, w graph.Vertex) int {
	b := h.bunch[u]
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b) && b[lo] == w {
		return lo
	}
	return -1
}

// InBunch reports whether u lies in C(w), i.e. w in B(u) - the membership
// check each routing step performs against u's local table.
func (h *Hierarchy) InBunch(u, w graph.Vertex) bool { return h.bunchIdx(u, w) >= 0 }

// BunchDist returns d(u, w) for w in B(u).
func (h *Hierarchy) BunchDist(u, w graph.Vertex) (float64, bool) {
	i := h.bunchIdx(u, w)
	if i < 0 {
		return 0, false
	}
	return h.bunchD[u][i], true
}

// Bunch returns B(u) sorted by id.
func (h *Hierarchy) Bunch(u graph.Vertex) []graph.Vertex { return h.bunch[u] }

// Level returns the largest i with v in A_i.
func (h *Hierarchy) Level(v graph.Vertex) int { return int(h.level[v]) }

// MaxBunchSize returns max_u |B(u)|.
func (h *Hierarchy) MaxBunchSize() int {
	m := 0
	for _, b := range h.bunch {
		if len(b) > m {
			m = len(b)
		}
	}
	return m
}

// AddWords charges the hierarchy's per-vertex storage: bunch ids, the tree
// routing state of every cluster tree the vertex belongs to, and the member
// labels kept at each root.
func (h *Hierarchy) AddWords(t *space.Tally) {
	for u := 0; u < h.G.N(); u++ {
		words := len(h.bunch[u])
		for _, w := range h.bunch[u] {
			words += h.Trees[w].WordsAt(graph.Vertex(u))
		}
		t.Add("tz-bunch-trees", u, words)
		t.Add("tz-root-labels", u, 2*h.Trees[u].Size())
	}
}

// Label is the routing label of a destination: one (landmark, tree label)
// pair per level.
type Label struct {
	P    []graph.Vertex
	Tlbl []treeroute.Label
}

// LabelOf assembles v's label.
func (h *Hierarchy) LabelOf(v graph.Vertex) Label {
	l := Label{P: make([]graph.Vertex, h.K), Tlbl: make([]treeroute.Label, h.K)}
	for i := 0; i < h.K; i++ {
		w := h.P[i][v]
		l.P[i] = w
		l.Tlbl[i] = h.Trees[w].LabelOf(v)
	}
	return l
}

// Scheme is the (4k-5)-stretch Thorup-Zwick baseline as a simnet.Scheme.
type Scheme struct {
	h      *Hierarchy
	k      int
	labels []Label
	tally  *space.Tally
}

var _ simnet.ReusableScheme = (*Scheme)(nil)

// New preprocesses the baseline scheme.
func New(g *graph.Graph, params Params) (*Scheme, error) {
	h, err := NewHierarchy(g, params)
	if err != nil {
		return nil, err
	}
	return assemble(h), nil
}

// assemble derives the labels and the storage tally from the hierarchy;
// the builder and the snapshot decoder both end here.
func assemble(h *Hierarchy) *Scheme {
	n := h.G.N()
	s := &Scheme{h: h, k: h.K, labels: make([]Label, n), tally: space.NewTally(n)}
	parallel.For(n, func(v int) {
		s.labels[v] = h.LabelOf(graph.Vertex(v))
	})
	h.AddWords(s.tally)
	return s
}

// Hierarchy exposes the underlying structure (used by Theorem 16).
func (s *Scheme) Hierarchy() *Hierarchy { return s.h }

type packet struct {
	dst  graph.Vertex
	lbl  Label
	root graph.Vertex // cluster tree being descended (NoVertex until chosen)
	tlbl treeroute.Label
}

// Name implements simnet.Scheme.
func (s *Scheme) Name() string { return fmt.Sprintf("tz-k%d-%dstretch", s.k, 4*s.k-5) }

// Graph implements simnet.Scheme.
func (s *Scheme) Graph() *graph.Graph { return s.h.G }

// Prepare implements simnet.Scheme.
func (s *Scheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	return s.prepare(&packet{}, src, dst)
}

// PrepareInto implements simnet.ReusableScheme.
func (s *Scheme) PrepareInto(scratch simnet.Packet, src, dst graph.Vertex) (simnet.Packet, error) {
	pk, ok := scratch.(*packet)
	if !ok {
		pk = &packet{}
	}
	return s.prepare(pk, src, dst)
}

func (s *Scheme) prepare(pk *packet, src, dst graph.Vertex) (simnet.Packet, error) {
	*pk = packet{dst: dst, lbl: s.labels[dst], root: graph.NoVertex}
	// Refinement of [TZ01] giving 4k-5: if v is in C(u), u's own tree label
	// table routes directly on T(u).
	if lbl := s.h.Trees[src].LabelOf(dst); lbl != treeroute.NoLabel {
		pk.root = src
		pk.tlbl = lbl
		return pk, nil
	}
	for i := 0; i < s.k; i++ {
		w := pk.lbl.P[i]
		if s.h.InBunch(src, w) {
			pk.root = w
			pk.tlbl = pk.lbl.Tlbl[i]
			return pk, nil
		}
	}
	return nil, fmt.Errorf("tzroute: no level of %d's label covers %d (top level must span V)", dst, src)
}

// Next implements simnet.Scheme.
func (s *Scheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	pk, ok := p.(*packet)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("tzroute: foreign packet %T", p)
	}
	if at == pk.dst {
		return simnet.Deliver(), nil
	}
	deliver, port, err := s.h.Trees[pk.root].Next(at, pk.tlbl)
	if err != nil {
		return simnet.Decision{}, err
	}
	if deliver {
		return simnet.Deliver(), nil
	}
	return simnet.Forward(port), nil
}

// HeaderWords implements simnet.Scheme.
func (s *Scheme) HeaderWords(simnet.Packet) int { return 3 }

// TableWords implements simnet.Scheme.
func (s *Scheme) TableWords(v graph.Vertex) int { return s.tally.At(int(v)) }

// Tally exposes the storage breakdown.
func (s *Scheme) Tally() *space.Tally { return s.tally }

// LabelWords implements simnet.Scheme: k (landmark, tree label) pairs.
func (s *Scheme) LabelWords(graph.Vertex) int { return 2 * s.k }

// StretchBound implements simnet.Scheme: 4k-5 (with the cluster refinement).
func (s *Scheme) StretchBound(d float64) float64 { return float64(4*s.k-5) * d }
