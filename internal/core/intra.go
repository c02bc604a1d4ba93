package core

import (
	"fmt"

	"compactroute/internal/graph"
	"compactroute/internal/hitting"
	"compactroute/internal/parallel"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/treeroute"
	"compactroute/internal/vicinity"
)

// Intra is the routing technique of Lemma 7: (1+eps)-stretch routing between
// vertices of the same part of a partition of V.
type Intra struct {
	g      *graph.Graph
	vics   []*vicinity.Set
	partOf []int32
	b      int
	eps    float64

	landmarks []graph.Vertex
	trees     map[graph.Vertex]*treeroute.Tree // spanning SPT per landmark
	bestH     []graph.Vertex                   // nearest hitting-set member in B(u)
	seqs      []map[graph.Vertex]intraSeq      // seqs[u][v] for v in u's part
}

// intraSeq is the routing information a source stores for one destination.
type intraSeq struct {
	waypoints []graph.Vertex
	landmark  graph.Vertex    // NoVertex when the last waypoint is the destination
	treeLbl   treeroute.Label // label of the destination in trees[landmark]
}

// IntraConfig carries the inputs of Lemma 7.
type IntraConfig struct {
	Graph *graph.Graph
	// Paths supplies canonical shortest-path queries (dense or lazy).
	Paths graph.PathSource
	// Vics[u] must be B(u, q-tilde) for every vertex.
	Vics []*vicinity.Set
	// PartOf[u] is the index of u's part in the partition U.
	PartOf []int32
	Eps    float64
}

// NewIntra runs the Lemma 7 preprocessing: computes a hitting set H of the
// vicinities, builds a spanning shortest-path tree per landmark and the
// per-pair waypoint sequences.
func NewIntra(cfg IntraConfig) (*Intra, error) {
	in, err := newIntraBase(cfg)
	if err != nil {
		return nil, err
	}
	// Group vertices by part and build per-pair sequences. Every source owns
	// its seqs[u] map, so the per-vertex loop runs on the worker pool.
	n := cfg.Graph.N()
	parts := make(map[int32][]graph.Vertex)
	for u := 0; u < n; u++ {
		parts[cfg.PartOf[u]] = append(parts[cfg.PartOf[u]], graph.Vertex(u))
	}
	if err := parallel.ForErr(n, func(ui int) error {
		u := graph.Vertex(ui)
		members := parts[cfg.PartOf[ui]]
		in.seqs[u] = make(map[graph.Vertex]intraSeq, len(members)-1)
		for _, v := range members {
			if u == v {
				continue
			}
			sq, err := in.buildSequence(cfg.Paths, u, v)
			if err != nil {
				return fmt.Errorf("core: sequence %d->%d: %w", u, v, err)
			}
			in.seqs[u][v] = sq
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return in, nil
}

// newIntraBase runs every Lemma 7 preprocessing step that is a pure
// function of (graph, vicinities, partition): the hitting set, the landmark
// trees and the nearest-hitting-set table. The per-pair sequences - the one
// piece that needs a PathSource - are filled by NewIntra or decoded by
// RestoreIntraV2 (cfg.Paths is not consulted here).
func newIntraBase(cfg IntraConfig) (*Intra, error) {
	g := cfg.Graph
	n := g.N()
	if len(cfg.Vics) != n || len(cfg.PartOf) != n {
		return nil, fmt.Errorf("core: intra config arrays must have length n=%d", n)
	}
	b, err := budget(cfg.Eps)
	if err != nil {
		return nil, err
	}
	in := &Intra{
		g:      g,
		vics:   cfg.Vics,
		partOf: cfg.PartOf,
		b:      b,
		eps:    cfg.Eps,
		trees:  make(map[graph.Vertex]*treeroute.Tree),
		bestH:  make([]graph.Vertex, n),
		seqs:   make([]map[graph.Vertex]intraSeq, n),
	}

	// Hitting set over the vicinities (Lemma 5).
	h, err := hitting.Greedy(n, vicinity.MemberSets(cfg.Vics))
	if err != nil {
		return nil, fmt.Errorf("core: hitting set: %w", err)
	}
	in.landmarks = h
	inH := make([]bool, n)
	for _, w := range h {
		inH[w] = true
	}
	// One spanning SPT per landmark; the searches are independent and each
	// writes its own slot, merged into the map in landmark order.
	landmarkTrees := make([]*treeroute.Tree, len(h))
	if err := parallel.ForErr(len(h), func(i int) error {
		t, err := treeroute.SPT(g, h[i])
		if err != nil {
			return fmt.Errorf("core: landmark tree %d: %w", h[i], err)
		}
		landmarkTrees[i] = t
		return nil
	}); err != nil {
		return nil, err
	}
	for i, w := range h {
		in.trees[w] = landmarkTrees[i]
	}
	if err := parallel.ForErr(n, func(u int) error {
		in.bestH[u] = graph.NoVertex
		vic := cfg.Vics[u]
		for i, c := 0, vic.Size(); i < c; i++ { // (dist, id) order: first hit is best
			if mv := vic.MemberV(i); inH[mv] {
				in.bestH[u] = mv
				break
			}
		}
		if in.bestH[u] == graph.NoVertex {
			return fmt.Errorf("core: hitting set misses B(%d)", u)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return in, nil
}

// buildSequence runs the waypoint-construction process of Lemma 7 for the
// pair (u, v).
func (in *Intra) buildSequence(paths graph.PathSource, u, v graph.Vertex) (intraSeq, error) {
	sq := intraSeq{landmark: graph.NoVertex}
	d := paths.Dist(u, v)
	if d == graph.Infinity {
		return sq, fmt.Errorf("unreachable")
	}
	s := d / float64(in.b) // progress threshold
	x := u
	appendWP := func(w graph.Vertex, last graph.Vertex) graph.Vertex {
		if w != last { // drop adjacent duplicates (y_i may equal x_i)
			sq.waypoints = append(sq.waypoints, w)
			return w
		}
		return last
	}
	last := u // "last" includes the implicit start x_0 = u
	for round := 0; ; round++ {
		if round > 2*in.b+4 {
			return sq, fmt.Errorf("sequence construction exceeded budget b=%d", in.b)
		}
		if in.vics[x].Contains(v) {
			appendWP(v, last)
			return sq, nil
		}
		y, z, err := exitEdge(paths, in.vics[x], x, v)
		if err != nil {
			return sq, err
		}
		switch {
		case z == v:
			last = appendWP(y, last)
			appendWP(v, last)
			return sq, nil
		case paths.Dist(x, z) < s:
			w := in.bestH[x]
			appendWP(w, last)
			sq.landmark = w
			sq.treeLbl = in.trees[w].LabelOf(v)
			if sq.treeLbl == treeroute.NoLabel {
				return sq, fmt.Errorf("destination %d missing from landmark tree %d", v, w)
			}
			return sq, nil
		default:
			last = appendWP(y, last)
			last = appendWP(z, last)
			x = z
		}
	}
}

// IntraState is the mutable packet header of an in-flight Lemma 7 route.
type IntraState struct {
	dst    graph.Vertex
	wp     []graph.Vertex
	i      int
	lm     graph.Vertex
	lbl    treeroute.Label
	inTree bool
}

// Words returns the header size in words.
func (st *IntraState) Words() int { return len(st.wp) + 4 }

// Start builds the header at the source: the stored sequence for dst is
// copied into the packet (the paper's "u obtains the sequence ... and adds
// it to the message header").
func (in *Intra) Start(src, dst graph.Vertex) (*IntraState, error) {
	return in.StartInto(nil, src, dst)
}

// StartInto is Start writing into a caller-owned state (allocated when st is
// nil): the reuse hook the zero-alloc serving path needs. The waypoint slice
// is shared read-only table data, never copied, so resetting st in place
// carries nothing over.
func (in *Intra) StartInto(st *IntraState, src, dst graph.Vertex) (*IntraState, error) {
	if st == nil {
		st = &IntraState{}
	}
	if src == dst {
		*st = IntraState{dst: dst}
		return st, nil
	}
	if in.partOf[src] != in.partOf[dst] {
		return nil, fmt.Errorf("core: %d and %d are in different parts", src, dst)
	}
	sq, ok := in.seqs[src][dst]
	if !ok {
		return nil, fmt.Errorf("core: no sequence stored at %d for %d", src, dst)
	}
	*st = IntraState{dst: dst, wp: sq.waypoints, lm: sq.landmark, lbl: sq.treeLbl}
	return st, nil
}

// Step makes the local forwarding decision of Lemma 7's routing phase.
func (in *Intra) Step(at graph.Vertex, st *IntraState) (simnet.Decision, error) {
	if at == st.dst {
		return simnet.Deliver(), nil
	}
	if st.inTree {
		return treeStep(in.trees[st.lm], at, st.lbl)
	}
	// Advance past reached waypoints.
	for st.i < len(st.wp) && st.wp[st.i] == at {
		st.i++
	}
	// If only the landmark remains, switch to tree routing: the message is
	// at x_{b'-1} (or at the source when the sequence is just the landmark)
	// and proceeds on T(landmark) toward the destination's tree label.
	if st.lm != graph.NoVertex && st.i >= len(st.wp)-1 {
		st.inTree = true
		return treeStep(in.trees[st.lm], at, st.lbl)
	}
	if st.i >= len(st.wp) {
		return simnet.Decision{}, fmt.Errorf("core: sequence exhausted at %d before reaching %d", at, st.dst)
	}
	p, err := forwardToward(in.g, in.vics, at, st.wp[st.i])
	if err != nil {
		return simnet.Decision{}, err
	}
	return simnet.Forward(p), nil
}

func treeStep(t *treeroute.Tree, at graph.Vertex, lbl treeroute.Label) (simnet.Decision, error) {
	deliver, port, err := t.Next(at, lbl)
	if err != nil {
		return simnet.Decision{}, err
	}
	if deliver {
		return simnet.Deliver(), nil
	}
	return simnet.Forward(port), nil
}

// Landmarks returns the hitting set H.
func (in *Intra) Landmarks() []graph.Vertex { return in.landmarks }

// Budget returns b = ceil(2/eps).
func (in *Intra) Budget() int { return in.b }

// AddTableWords charges the Lemma 7 storage to a tally: the per-destination
// sequences and the landmark-tree routing state at every vertex. (The
// vicinity tables are charged by the scheme that owns them.)
func (in *Intra) AddTableWords(t *space.Tally) {
	for u := 0; u < in.g.N(); u++ {
		words := 0
		for _, sq := range in.seqs[u] {
			words += 1 + len(sq.waypoints) // destination key + waypoints
			if sq.landmark != graph.NoVertex {
				words += 2 // landmark id + tree label of the destination
			}
		}
		t.Add("lemma7-sequences", u, words)
		tw := 1 // bestH pointer
		for _, tr := range in.trees {
			tw += tr.WordsAt(graph.Vertex(u))
		}
		t.Add("lemma7-landmark-trees", u, tw)
	}
}

// IntraScheme wraps Intra as a standalone simnet.Scheme for the experiments
// that exercise Lemma 7 in isolation (E3). It routes only between vertices
// of the same part.
type IntraScheme struct {
	In *Intra
}

var _ simnet.Scheme = (*IntraScheme)(nil)

// Name implements simnet.Scheme.
func (s *IntraScheme) Name() string { return "lemma7-intra" }

// Graph implements simnet.Scheme.
func (s *IntraScheme) Graph() *graph.Graph { return s.In.g }

// Prepare implements simnet.Scheme.
func (s *IntraScheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	return s.In.Start(src, dst)
}

// Next implements simnet.Scheme.
func (s *IntraScheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	return s.In.Step(at, p.(*IntraState))
}

// HeaderWords implements simnet.Scheme.
func (s *IntraScheme) HeaderWords(p simnet.Packet) int { return p.(*IntraState).Words() }

// TableWords implements simnet.Scheme.
func (s *IntraScheme) TableWords(v graph.Vertex) int {
	t := space.NewTally(s.In.g.N())
	s.In.AddTableWords(t)
	for u := 0; u < s.In.g.N(); u++ {
		t.Add("vicinity", u, s.In.vics[u].Words())
	}
	return t.At(int(v))
}

// LabelWords implements simnet.Scheme.
func (s *IntraScheme) LabelWords(graph.Vertex) int { return 2 } // vertex id + part

// StretchBound implements simnet.Scheme: Lemma 7 proves (1 + 2/b)d <= (1+eps)d.
func (s *IntraScheme) StretchBound(d float64) float64 {
	return (1 + 2/float64(s.In.b)) * d
}
