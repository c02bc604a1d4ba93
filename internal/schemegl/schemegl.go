// Package schemegl implements the generalized routing schemes of Section 5:
// for an integer l > 1, a (3 - 2/l + eps, 2)-stretch scheme with
// O~(l (1/eps) n^{l/(2l-1)}) tables (Theorem 13) and a (3 + 2/l + eps, 2)-
// stretch scheme with O~(l (1/eps) n^{l/(2l+1)}) tables (Theorem 15), both
// for unweighted graphs. They almost match the distance-oracle tradeoff of
// Patrascu, Thorup and Roditty (FOCS'12).
//
// The construction stacks l+1 levels of the Theorem 10/11 machinery:
// vicinities B_i(u) = B(u, inflate(q^i)), landmark sets L_i with cluster
// bound O(q^i) (L_0 = V), routable cluster trees at every level, per-level
// hash tables over the intersections B_i(u) /\ B_{L_{l-i}}(v), per-level
// colorings c_i with q^i colors, and one Lemma 8 instance per level pairing
// the color classes of c_i with a partition of L_{l-i-1} (Theorem 13) or
// L_{l-i+1} (Theorem 15). Routing either finds an intersection level (an
// exact shortest path through a cluster tree) or picks the level j
// minimizing a_j + b_{k(j)} - the index tradeoff of Lemmas 12 and 14 - and
// detours through p_{L_{k(j)}}(v) with Lemma 8.
package schemegl

import (
	"fmt"
	"math"

	"compactroute/internal/cluster"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/treeroute"
)

// Variant selects between the two generalized theorems.
type Variant int

const (
	// Minus is Theorem 13: stretch (3 - 2/l + eps, 2), q = n^{1/(2l-1)}.
	Minus Variant = iota + 1
	// Plus is Theorem 15: stretch (3 + 2/l + eps, 2), q = n^{1/(2l+1)}.
	Plus
)

// Params configures the scheme.
type Params struct {
	L              int // the paper's l; must be > 1
	Variant        Variant
	Eps            float64
	VicinityFactor float64 // default 1.5
	Seed           int64
}

func (p *Params) fill() {
	if p.VicinityFactor == 0 {
		p.VicinityFactor = 1.5
	}
}

// via is a merged hash-table entry: the best intersection vertex and the
// level it was found at.
type via struct {
	w     graph.Vertex
	level int8
	sum   float64
}

// glLabel is the O(l log n)-bit label: per label level j, the landmark
// p_{L_j}(v), its part index in W^j, d(v, p_{L_j}(v)) and the port of the
// first edge from p_{L_j}(v) toward v.
type glLabel struct {
	p     []graph.Vertex
	alpha []int32
	dist  []float64
	port  []graph.Port
}

// newLabel returns a label over levels 0..l with no landmark and no port
// at any level; the build and decode paths fill the label levels.
func newLabel(l int) glLabel {
	lbl := glLabel{
		p:     make([]graph.Vertex, l+1),
		alpha: make([]int32, l+1),
		dist:  make([]float64, l+1),
		port:  make([]graph.Port, l+1),
	}
	for i := range lbl.port {
		lbl.p[i] = graph.NoVertex
		lbl.port[i] = graph.NoPort
	}
	return lbl
}

// Scheme is a preprocessed Theorem 13 or Theorem 15 scheme.
type Scheme struct {
	g      *graph.Graph
	params Params
	q      int
	qPow   []int                          // q^i clamped to n
	lms    []*cluster.Landmarks           // L_0..L_l
	fores  []*schemeutil.ClusterForest    // per level
	vcs    []*schemeutil.VicinityColoring // per vicinity level 0..l
	inters []*core.Inter                  // per instance level (nil outside I)
	// alphaOf[j] maps a landmark of L_j to its part index in W^j.
	alphaOf []map[graph.Vertex]int32
	hash    []map[graph.Vertex]via
	labels  []glLabel
	tally   *space.Tally
}

var _ simnet.Scheme = (*Scheme)(nil)

// instanceLevels returns the Lemma 8 instance indices I and the label level
// k(i) each instance targets.
func (p Params) instanceLevels() (is []int, k func(int) int) {
	if p.Variant == Plus {
		for i := 1; i <= p.L; i++ {
			is = append(is, i)
		}
		return is, func(i int) int { return p.L - i + 1 }
	}
	for i := 0; i < p.L; i++ {
		is = append(is, i)
	}
	return is, func(i int) int { return p.L - i - 1 }
}

// New runs the preprocessing phase. The graph must be unweighted.
func New(g *graph.Graph, paths graph.PathSource, params Params) (*Scheme, error) {
	params.fill()
	if params.L < 2 {
		return nil, fmt.Errorf("schemegl: need l > 1, got %d", params.L)
	}
	if params.Variant != Minus && params.Variant != Plus {
		return nil, fmt.Errorf("schemegl: unknown variant %d", params.Variant)
	}
	if !g.Unit() {
		return nil, fmt.Errorf("schemegl: Theorems 13/15 apply to unweighted graphs")
	}
	n := g.N()
	l := params.L
	s := &Scheme{g: g, params: params}
	s.deriveGranularity()

	// Landmark levels L_0..L_l: L_0 = V; L_i by Lemma 4 with cluster bound
	// 4 q^i (s = n / q^i).
	s.lms = make([]*cluster.Landmarks, l+1)
	s.fores = make([]*schemeutil.ClusterForest, l+1)
	all := make([]graph.Vertex, n)
	for i := range all {
		all[i] = graph.Vertex(i)
	}
	for i := 0; i <= l; i++ {
		var (
			lm  *cluster.Landmarks
			err error
		)
		if i == 0 {
			lm, err = cluster.New(g, all)
		} else {
			target := n / s.qPow[i]
			if target < 1 {
				target = 1
			}
			lm, err = cluster.CenterCover(g, target, params.Seed+int64(100*i))
		}
		if err != nil {
			return nil, fmt.Errorf("schemegl: level %d landmarks: %w", i, err)
		}
		s.lms[i] = lm
		s.fores[i], err = schemeutil.BuildClusterForest(g, lm)
		if err != nil {
			return nil, fmt.Errorf("schemegl: level %d forest: %w", i, err)
		}
	}

	// Vicinity levels 0..l, each with a coloring of q^i colors.
	is, kOf := params.instanceLevels()
	s.vcs = make([]*schemeutil.VicinityColoring, l+1)
	for i := 0; i <= l; i++ {
		vc, err := schemeutil.BuildVicinityColoring(g, s.qPow[i], params.VicinityFactor, params.Seed+int64(7*i))
		if err != nil {
			return nil, fmt.Errorf("schemegl: level %d vicinities: %w", i, err)
		}
		s.vcs[i] = vc
	}

	// Partitions W^j of L_j and the Lemma 8 instances.
	s.alphaOf = make([]map[graph.Vertex]int32, l+1)
	s.inters = make([]*core.Inter, l+1)
	for _, i := range is {
		j := kOf(i)
		wParts, alpha := s.partitionLandmarks(i, j)
		s.alphaOf[j] = alpha
		inter, err := core.NewInter(core.InterConfig{
			Graph: g, Paths: paths, Vics: s.vcs[i].Vics,
			UPartOf: s.vcs[i].PartOf, Reps: s.vcs[i].Reps, WParts: wParts, Eps: params.Eps,
		})
		if err != nil {
			return nil, fmt.Errorf("schemegl: instance %d: %w", i, err)
		}
		s.inters[i] = inter
	}

	s.buildHash()

	// Labels: one entry per label level j in the image of kOf.
	labelLevels := make([]int, 0, l)
	for _, i := range is {
		labelLevels = append(labelLevels, kOf(i))
	}
	s.labels = make([]glLabel, n)
	if err := parallel.ForErr(n, func(v int) error {
		lbl := newLabel(l)
		for _, j := range labelLevels {
			pv := s.lms[j].P[v]
			lbl.p[j] = pv
			lbl.alpha[j] = s.alphaOf[j][pv]
			lbl.dist[j] = s.lms[j].DistA[v]
			if pv != graph.Vertex(v) {
				z := paths.First(pv, graph.Vertex(v))
				lbl.port[j] = g.PortTo(pv, z)
				if lbl.port[j] == graph.NoPort {
					return fmt.Errorf("schemegl: first edge (%d,%d) missing", pv, z)
				}
			}
		}
		s.labels[v] = lbl
		return nil
	}); err != nil {
		return nil, err
	}

	s.buildTally()
	return s, nil
}

// deriveGranularity computes q = n^{1/(2l-+1)} and the clamped powers
// q^0..q^l - pure functions of (n, l, variant), shared by the build and
// decode paths.
func (s *Scheme) deriveGranularity() {
	n := s.g.N()
	l := s.params.L
	denom := 2*l - 1
	if s.params.Variant == Plus {
		denom = 2*l + 1
	}
	q := int(math.Ceil(math.Pow(float64(n), 1/float64(denom))))
	if q < 2 {
		q = 2
	}
	s.q = q
	s.qPow = make([]int, l+1)
	p := 1
	for i := 0; i <= l; i++ {
		s.qPow[i] = p
		if p < n {
			p *= q
		}
		if s.qPow[i] > n {
			s.qPow[i] = n
		}
	}
}

// partitionLandmarks chunks L_j into q^i equal parts - the partition W^j of
// the Lemma 8 instance at level i - and returns the parts with the
// landmark-to-part index. Deterministic in the landmark order, so the build
// and decode paths derive identical partitions.
func (s *Scheme) partitionLandmarks(i, j int) ([][]graph.Vertex, map[graph.Vertex]int32) {
	parts := s.qPow[i]
	lm := s.lms[j]
	wParts := make([][]graph.Vertex, parts)
	chunk := (len(lm.A) + parts - 1) / parts
	alpha := make(map[graph.Vertex]int32, len(lm.A))
	for idx, w := range lm.A {
		pj := idx / chunk
		wParts[pj] = append(wParts[pj], w)
		alpha[w] = int32(pj)
	}
	return wParts, alpha
}

// buildHash merges the per-level intersection tables: for every i in
// {0..l}, every w in B_i(u) and every v in C_{L_{l-i}}(w), the pair (u, v)
// can route exactly through w. Each vertex owns its table; the (sum, w,
// level) tie-break makes the merged entry independent of iteration order.
func (s *Scheme) buildHash() {
	n := s.g.N()
	l := s.params.L
	s.hash = make([]map[graph.Vertex]via, n)
	parallel.For(n, func(u int) {
		h := make(map[graph.Vertex]via)
		for i := 0; i <= l; i++ {
			lm := s.lms[l-i]
			vic := s.vcs[i].Vics[u]
			for j, c := 0, vic.Size(); j < c; j++ {
				mv, md := vic.MemberV(j), vic.MemberDist(j)
				for _, cm := range lm.Cluster(mv) {
					sum := md + cm.Dist
					if old, ok := h[cm.V]; !ok || sum < old.sum ||
						(sum == old.sum && (mv < old.w || (mv == old.w && int8(i) < old.level))) {
						h[cm.V] = via{w: mv, level: int8(i), sum: sum}
					}
				}
			}
		}
		s.hash[u] = h
	})
}

// buildTally charges storage: the top-level vicinity (lower levels are
// prefixes of it and share the table), per-level cluster trees and root
// labels, per-level color representatives, hash tables, and the Lemma 8
// sequences.
func (s *Scheme) buildTally() {
	n := s.g.N()
	l := s.params.L
	s.tally = space.NewTally(n)
	s.vcs[l].AddWords(s.tally)
	is, _ := s.params.instanceLevels()
	for i := 0; i <= l; i++ {
		s.fores[i].AddWords(s.tally, fmt.Sprintf("cluster-trees-L%d", i))
	}
	for _, i := range is {
		if i != l {
			for u := 0; u < n; u++ {
				s.tally.Add("color-reps", u, 2*len(s.vcs[i].Reps[u]))
			}
		}
		s.inters[i].AddTableWords(s.tally)
	}
	for u := 0; u < n; u++ {
		s.tally.Add("intersection-hash", u, 3*len(s.hash[u]))
		s.tally.Add("radii", u, l+1)
	}
}

type phase int8

const (
	phaseVicinity phase = iota + 1
	phaseToVia
	phaseViaTree
	phaseToRep
	phaseInter
	phaseDestTree
)

type packet struct {
	dst      graph.Vertex
	lbl      glLabel
	ph       phase
	via      graph.Vertex
	viaLevel int8
	treeRoot graph.Vertex
	treeLvl  int8
	tlbl     treeroute.Label
	rep      graph.Vertex
	instLvl  int8 // Lemma 8 instance level j
	kLvl     int8 // label level k(j)
	inter    *core.InterState
}

// Name implements simnet.Scheme.
func (s *Scheme) Name() string {
	if s.params.Variant == Plus {
		return fmt.Sprintf("thm15-l%d-3+2/l+eps", s.params.L)
	}
	return fmt.Sprintf("thm13-l%d-3-2/l+eps", s.params.L)
}

// Graph implements simnet.Scheme.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Prepare implements simnet.Scheme.
func (s *Scheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	l := s.params.L
	pk := &packet{dst: dst, lbl: s.labels[dst]}
	if src == dst || s.vcs[l].Vics[src].Contains(dst) {
		pk.ph = phaseVicinity
		return pk, nil
	}
	if entry, ok := s.hash[src][dst]; ok {
		pk.ph = phaseToVia
		pk.via = entry.w
		pk.viaLevel = entry.level
		return pk, nil
	}
	// Index selection of Lemmas 12/14: minimize a_i + b_{k(i)}, ties to the
	// highest i. b_j = d(v, p_{L_j}(v)) - 1 when v is outside L_j, else 0.
	is, kOf := s.params.instanceLevels()
	bestI, bestK := -1, -1
	bestVal := math.Inf(1)
	for _, i := range is {
		k := kOf(i)
		a := s.vcs[i].Vics[src].Radius()
		b := pk.lbl.dist[k] - 1
		if b < 0 {
			b = 0
		}
		if v := a + b; v < bestVal || (v == bestVal && i > bestI) {
			bestVal, bestI, bestK = v, i, k
		}
	}
	pk.ph = phaseToRep
	pk.instLvl = int8(bestI)
	pk.kLvl = int8(bestK)
	pk.rep = s.vcs[bestI].Reps[src][pk.lbl.alpha[bestK]]
	return pk, nil
}

// Next implements simnet.Scheme.
func (s *Scheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	pk, ok := p.(*packet)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("schemegl: foreign packet %T", p)
	}
	if at == pk.dst {
		return simnet.Deliver(), nil
	}
	l := s.params.L
	switch pk.ph {
	case phaseVicinity:
		return s.vicinityStep(at, pk.dst)
	case phaseToVia:
		if at != pk.via {
			return s.vicinityStep(at, pk.via)
		}
		lvl := l - int(pk.viaLevel)
		lbl, ok := s.fores[lvl].LabelAtRoot(at, pk.dst)
		if !ok {
			return simnet.Decision{}, fmt.Errorf("schemegl: %d not in level-%d cluster of %d", pk.dst, lvl, at)
		}
		pk.ph = phaseViaTree
		pk.treeRoot = at
		pk.treeLvl = int8(lvl)
		pk.tlbl = lbl
		fallthrough
	case phaseViaTree, phaseDestTree:
		deliver, port, err := schemeutil.TreeStep(s.fores[pk.treeLvl].Tree(pk.treeRoot), at, pk.tlbl)
		if err != nil {
			return simnet.Decision{}, err
		}
		if deliver {
			return simnet.Deliver(), nil
		}
		return simnet.Forward(port), nil
	case phaseToRep:
		if at != pk.rep {
			return s.vicinityStep(at, pk.rep)
		}
		st, err := s.inters[pk.instLvl].Start(at, pk.lbl.p[pk.kLvl])
		if err != nil {
			return simnet.Decision{}, fmt.Errorf("schemegl: inter start: %w", err)
		}
		pk.ph = phaseInter
		pk.inter = st
		fallthrough
	case phaseInter:
		target := pk.lbl.p[pk.kLvl]
		if at != target {
			return s.inters[pk.instLvl].Step(at, pk.inter)
		}
		// Arrived at p_{L_k}(v): cross the stored first edge to v'_k and
		// descend its level-k cluster tree (v is in C_{L_k}(v'_k)).
		port := pk.lbl.port[pk.kLvl]
		if port == graph.NoPort {
			return simnet.Decision{}, fmt.Errorf("schemegl: at p=%d with no onward edge toward %d", at, pk.dst)
		}
		z, _, _ := s.g.Endpoint(at, port)
		lbl, ok := s.fores[pk.kLvl].LabelAtRoot(z, pk.dst)
		if !ok {
			return simnet.Decision{}, fmt.Errorf("schemegl: %d not in level-%d cluster of %d", pk.dst, pk.kLvl, z)
		}
		pk.ph = phaseDestTree
		pk.treeRoot = z
		pk.treeLvl = pk.kLvl
		pk.tlbl = lbl
		return simnet.Forward(port), nil
	default:
		return simnet.Decision{}, fmt.Errorf("schemegl: corrupt packet phase %d", pk.ph)
	}
}

func (s *Scheme) vicinityStep(at, target graph.Vertex) (simnet.Decision, error) {
	first, ok := s.vcs[s.params.L].Vics[at].FirstHop(target)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("schemegl: %d lost vicinity target %d", at, target)
	}
	return simnet.Forward(s.g.PortTo(at, first)), nil
}

// HeaderWords implements simnet.Scheme.
func (s *Scheme) HeaderWords(p simnet.Packet) int {
	pk := p.(*packet)
	w := 10
	if pk.inter != nil {
		w += pk.inter.Words()
	}
	return w
}

// TableWords implements simnet.Scheme.
func (s *Scheme) TableWords(v graph.Vertex) int { return s.tally.At(int(v)) }

// Tally exposes the storage breakdown.
func (s *Scheme) Tally() *space.Tally { return s.tally }

// LabelWords implements simnet.Scheme: 4 words per label level plus v.
func (s *Scheme) LabelWords(graph.Vertex) int { return 4*s.params.L + 1 }

// Q exposes the computed granularity n^{1/(2l-+1)} for the experiments.
func (s *Scheme) Q() int { return s.q }

// StretchBound implements simnet.Scheme, using the exact bounds derived in
// the proofs: Delta(3 + 3eps - (2+eps)/l) + 2 for Theorem 13 and
// Delta(3 + 2/l + 4eps) + 2 for Theorem 15.
func (s *Scheme) StretchBound(d float64) float64 {
	l, eps := float64(s.params.L), s.params.Eps
	if s.params.Variant == Plus {
		return d*(3+2/l+4*eps) + 2
	}
	return d*(3+3*eps-(2+eps)/l) + 2
}
