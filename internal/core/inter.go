package core

import (
	"fmt"
	"math"
	"slices"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/vicinity"
)

// Inter is the routing technique of Lemma 8: (1+eps)-stretch routing from
// any vertex of U_i to any vertex of W_i, where W = {W_1..W_q} partitions a
// target set W and U = {U_1..U_q} partitions V such that every part of U
// intersects every vicinity B(u, q-tilde).
type Inter struct {
	g       *graph.Graph
	vics    []*vicinity.Set
	uPartOf []int32
	wPartOf []int32 // part index of each target, -1 for non-targets
	b       int
	eps     float64
	scale   float64 // omega_min: unit of the doubling thresholds
	maxDist float64 // 2x one eccentricity: upper bound on any finite distance

	// relayRep[u][j], j < parts, is a vertex of U_j inside B(u, q-tilde); its
	// existence is the hitting precondition of the lemma. The rows are the
	// caller's (InterConfig.Reps), shared.
	relayRep [][]graph.Vertex
	parts    int // len(WParts)
	// flat holds the sequences in the layout the snapshot stores: built and
	// repaired schemes lay them out once, decoded ones alias the mapped
	// bytes.
	flat interFlat
}

// interSeq is the stored sequence for one (source, target) pair.
type interSeq struct {
	target    graph.Vertex
	waypoints []graph.Vertex
	relay     bool // last waypoint is a relay in U_j rather than the target
}

// interFlat stores every sequence in five flat arrays: targets of source u
// are targets[srcOff[u]:srcOff[u+1]] in ascending order, sequence si's
// waypoints are wps[wpOff[si]:wpOff[si+1]], and relay holds one bit per
// sequence. All slices are read-only: a decoded scheme's alias the
// snapshot.
type interFlat struct {
	srcOff  []uint32 // n+1
	targets []graph.Vertex
	relay   []uint32 // bitset over sequence indexes
	wpOff   []uint32 // len(targets)+1
	wps     []graph.Vertex
}

// layoutSeqs concatenates per-source runs of sequences, each in ascending
// target order, into the flat layout; runs[u] is source u's run.
func layoutSeqs(runs [][]interSeq) interFlat {
	f := interFlat{srcOff: make([]uint32, len(runs)+1)}
	totalSeqs, totalWps := 0, 0
	for _, run := range runs {
		totalSeqs += len(run)
		for _, sq := range run {
			totalWps += len(sq.waypoints)
		}
	}
	f.targets = make([]graph.Vertex, 0, totalSeqs)
	f.relay = make([]uint32, (totalSeqs+31)/32)
	f.wpOff = make([]uint32, 1, totalSeqs+1)
	f.wps = make([]graph.Vertex, 0, totalWps)
	for u, run := range runs {
		for _, sq := range run {
			si := len(f.targets)
			f.targets = append(f.targets, sq.target)
			if sq.relay {
				f.relay[si>>5] |= 1 << (si & 31)
			}
			f.wps = append(f.wps, sq.waypoints...)
			f.wpOff = append(f.wpOff, uint32(len(f.wps)))
		}
		f.srcOff[u+1] = uint32(len(f.targets))
	}
	return f
}

// seq returns stored sequence si, its waypoints aliasing the slab.
func (f *interFlat) seq(si int) interSeq {
	return interSeq{target: f.targets[si], waypoints: f.wps[f.wpOff[si]:f.wpOff[si+1]],
		relay: f.relay[si>>5]>>(si&31)&1 == 1}
}

// lookupSeq returns the stored sequence for the pair (u, w) by binary
// search over u's target run.
func (in *Inter) lookupSeq(u, w graph.Vertex) (wps []graph.Vertex, relay, ok bool) {
	f := &in.flat
	lo, hi := int(f.srcOff[u]), int(f.srcOff[u+1])
	run := f.targets[lo:hi]
	i, j := 0, len(run)
	for i < j {
		h := int(uint(i+j) >> 1)
		if run[h] < w {
			i = h + 1
		} else {
			j = h
		}
	}
	if i >= len(run) || run[i] != w {
		return nil, false, false
	}
	sq := f.seq(lo + i)
	return sq.waypoints, sq.relay, true
}

// InterConfig carries the inputs of Lemma 8.
type InterConfig struct {
	Graph *graph.Graph
	// Paths supplies canonical shortest-path queries (dense or lazy).
	Paths graph.PathSource
	// Vics[u] must be B(u, q-tilde) for every vertex, where q = number of
	// parts of the partitions.
	Vics []*vicinity.Set
	// UPartOf[u] is the index of u's part in the partition U of V.
	UPartOf []int32
	// Reps[u][j], for j < len(WParts) at least, is the first member of U_j
	// in B(u, q-tilde) in (dist, id) order: Lemma 8's relay representatives,
	// which schemeutil.VicinityColoring.Reps holds. Shared read-only.
	Reps [][]graph.Vertex
	// WParts is the partition W of the target set (part j receives messages
	// from sources of U_j).
	WParts [][]graph.Vertex
	Eps    float64
}

// NewInter runs the Lemma 8 preprocessing.
func NewInter(cfg InterConfig) (*Inter, error) {
	in, err := newInterBase(cfg)
	if err != nil {
		return nil, err
	}
	paths := cfg.Paths
	in.maxDist = maxDistBound(paths)
	// Sequences: every u stores one per target in W_{part(u)}, in
	// ascending target order.
	sorted := make([][]graph.Vertex, len(cfg.WParts))
	for j, part := range cfg.WParts {
		sorted[j] = slices.Sorted(slices.Values(part))
	}
	runs := make([][]interSeq, in.g.N())
	if err := parallel.ForErr(in.g.N(), func(u int) error {
		j := cfg.UPartOf[u]
		if int(j) >= len(sorted) {
			return nil // parts beyond W receive no targets
		}
		run := make([]interSeq, 0, len(sorted[j]))
		for _, w := range sorted[j] {
			if graph.Vertex(u) == w {
				continue
			}
			sq, err := in.buildSequence(paths, graph.Vertex(u), w, j)
			if err != nil {
				return fmt.Errorf("core: inter sequence %d->%d: %w", u, w, err)
			}
			run = append(run, sq)
		}
		runs[u] = run
		return nil
	}); err != nil {
		return nil, err
	}
	in.flat = layoutSeqs(runs)
	return in, nil
}

// newInterBase validates the Lemma 8 inputs and derives everything except
// the sequences and maxDist: the target partition map, and the relay
// representatives taken from cfg.Reps. Both the construction path
// (NewInter) and the snapshot restore path (RestoreInterV2) share this.
func newInterBase(cfg InterConfig) (*Inter, error) {
	g := cfg.Graph
	n := g.N()
	if len(cfg.Vics) != n || len(cfg.UPartOf) != n || len(cfg.Reps) != n {
		return nil, fmt.Errorf("core: inter config arrays must have length n=%d", n)
	}
	b, err := budget(cfg.Eps)
	if err != nil {
		return nil, err
	}
	b++ // Lemma 8 uses b = ceil(2/eps) + 1
	q := len(cfg.WParts)
	in := &Inter{
		g:        g,
		vics:     cfg.Vics,
		uPartOf:  cfg.UPartOf,
		wPartOf:  make([]int32, n),
		b:        b,
		eps:      cfg.Eps,
		scale:    minEdgeWeight(g),
		relayRep: cfg.Reps,
		parts:    q,
	}
	for i := range in.wPartOf {
		in.wPartOf[i] = -1
	}
	for j, part := range cfg.WParts {
		for _, w := range part {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("core: W vertex %d out of range [0,%d)", w, n)
			}
			if in.wPartOf[w] >= 0 {
				return nil, fmt.Errorf("core: %d appears twice in W", w)
			}
			in.wPartOf[w] = int32(j)
		}
	}
	if err := in.checkRelayReps(); err != nil {
		return nil, err
	}
	return in, nil
}

// checkRelayReps checks that every row of relayRep holds a vertex for each
// of the parts of W.
func (in *Inter) checkRelayReps() error {
	for u, row := range in.relayRep {
		if len(row) < in.parts {
			return fmt.Errorf("core: B(%d) has %d relay representatives for %d parts of W", u, len(row), in.parts)
		}
		for j, r := range row[:in.parts] {
			if r == graph.NoVertex {
				return fmt.Errorf("core: U_%d does not intersect B(%d) (hitting precondition of Lemma 8 violated)", j, u)
			}
		}
	}
	return nil
}

// buildSequence constructs the sequence stored at u for target w following
// Section 3: the first one or two path vertices, then subsequences produced
// with doubling thresholds 2*scale/b, 4*scale/b, ... Each subsequence either
// finishes the route (reaches w), hands off to a relay in U_j, or fills its
// 2b-vertex budget and doubles the threshold.
func (in *Inter) buildSequence(paths graph.PathSource, u, w graph.Vertex, j int32) (interSeq, error) {
	sq := interSeq{target: w}
	if paths.Dist(u, w) == graph.Infinity {
		return sq, fmt.Errorf("unreachable")
	}
	// Shortcut kept from Lemma 2: a target already inside the vicinity is
	// reachable on a shortest path with a single waypoint.
	if in.vics[u].Contains(w) {
		sq.waypoints = []graph.Vertex{w}
		return sq, nil
	}
	u1 := paths.First(u, w)
	sq.waypoints = append(sq.waypoints, u1)
	if u1 == w {
		return sq, nil
	}
	u2 := paths.First(u1, w)
	sq.waypoints = append(sq.waypoints, u2)
	if u2 == w {
		return sq, nil
	}
	x := u2
	s := 2 * in.scale / float64(in.b)
	last := u2
	appendWP := func(v graph.Vertex) {
		if v != last {
			sq.waypoints = append(sq.waypoints, v)
			last = v
		}
	}
	maxSubseqs := 2*log2ceil(in.g.N())*int(math.Ceil(math.Log2(in.maxDist/in.scale+2))) + 16
	for sub := 0; ; sub++ {
		if sub > maxSubseqs {
			return sq, fmt.Errorf("subsequence count exceeded bound %d", maxSubseqs)
		}
		subLen := 0
		doubled := false
		for {
			if in.vics[x].Contains(w) {
				appendWP(w)
				return sq, nil
			}
			y, z, err := exitEdge(paths, in.vics[x], x, w)
			if err != nil {
				return sq, err
			}
			switch {
			case z == w:
				appendWP(y)
				appendWP(w)
				return sq, nil
			case paths.Dist(x, z) < s:
				relay := in.relayRep[x][j]
				appendWP(relay)
				sq.relay = true
				return sq, nil
			default:
				appendWP(y)
				appendWP(z)
				x = z
				subLen += 2
				if subLen >= 2*in.b {
					s *= 2
					doubled = true
				}
			}
			if doubled {
				break
			}
		}
	}
}

func log2ceil(n int) int {
	l := 1
	for x := 1; x < n; x *= 2 {
		l++
	}
	return l
}

// maxDistBound upper-bounds every finite pairwise distance: the eccentricity
// of any one vertex times 2 bounds the diameter. It reads a single row, and
// NewInter computes it once up front - per-sequence recomputation would make
// a lazy PathSource re-derive the row on every cache eviction.
func maxDistBound(paths graph.PathSource) float64 {
	var maxD float64 = 1
	if paths.N() > 0 {
		if e := graph.EccentricityOf(paths, 0); e > maxD {
			maxD = e
		}
	}
	return 2 * maxD
}

// InterState is the mutable packet header of an in-flight Lemma 8 route.
type InterState struct {
	dst      graph.Vertex
	wp       []graph.Vertex
	i        int
	relay    bool
	handoffs int
	maxLen   int
}

// Words returns the current header size in words.
func (st *InterState) Words() int {
	l := len(st.wp)
	if st.maxLen > l {
		l = st.maxLen
	}
	return l + 3
}

// Start builds the header at a source in U_{part(dst)}.
func (in *Inter) Start(src, dst graph.Vertex) (*InterState, error) {
	return in.StartInto(nil, src, dst)
}

// StartInto is Start writing into a caller-owned state (allocated when st is
// nil): the reuse hook the zero-alloc serving path needs. The waypoint slice
// is shared read-only table data, never copied, so resetting st in place
// carries nothing over.
func (in *Inter) StartInto(st *InterState, src, dst graph.Vertex) (*InterState, error) {
	if st == nil {
		st = &InterState{}
	}
	if src == dst {
		*st = InterState{dst: dst}
		return st, nil
	}
	if dst < 0 || int(dst) >= len(in.wPartOf) || in.wPartOf[dst] < 0 {
		return nil, fmt.Errorf("core: %d is not a Lemma 8 target", dst)
	}
	j := in.wPartOf[dst]
	if in.uPartOf[src] != j {
		return nil, fmt.Errorf("core: source %d is in U_%d, not U_%d", src, in.uPartOf[src], j)
	}
	wps, relay, ok := in.lookupSeq(src, dst)
	if !ok {
		return nil, fmt.Errorf("core: no sequence stored at %d for %d", src, dst)
	}
	*st = InterState{dst: dst, wp: wps, relay: relay, maxLen: len(wps)}
	return st, nil
}

// Step makes the local forwarding decision of Lemma 8's routing phase. At a
// relay the header is rewritten with the relay's own stored sequence.
func (in *Inter) Step(at graph.Vertex, st *InterState) (simnet.Decision, error) {
	if at == st.dst {
		return simnet.Deliver(), nil
	}
	for st.i < len(st.wp) && st.wp[st.i] == at {
		st.i++
	}
	if st.i >= len(st.wp) {
		if !st.relay {
			return simnet.Decision{}, fmt.Errorf("core: inter sequence exhausted at %d before %d", at, st.dst)
		}
		// Hand-off: this vertex is the relay r_{i+1}; swap in its sequence.
		wps, relay, ok := in.lookupSeq(at, st.dst)
		if !ok {
			return simnet.Decision{}, fmt.Errorf("core: relay %d has no sequence for %d", at, st.dst)
		}
		st.handoffs++
		if st.handoffs > in.g.N()+4 {
			return simnet.Decision{}, fmt.Errorf("core: relay hand-offs did not converge (Claim 9 violated?)")
		}
		st.wp, st.i, st.relay = wps, 0, relay
		if len(wps) > st.maxLen {
			st.maxLen = len(wps)
		}
		for st.i < len(st.wp) && st.wp[st.i] == at {
			st.i++
		}
		if st.i >= len(st.wp) {
			return simnet.Decision{}, fmt.Errorf("core: relay %d produced an empty continuation for %d", at, st.dst)
		}
	}
	p, err := forwardToward(in.g, in.vics, at, st.wp[st.i])
	if err != nil {
		return simnet.Decision{}, err
	}
	return simnet.Forward(p), nil
}

// Budget returns b = ceil(2/eps) + 1.
func (in *Inter) Budget() int { return in.b }

// Targets reports whether dst is one of the Lemma 8 targets.
func (in *Inter) Targets(dst graph.Vertex) bool {
	return dst >= 0 && int(dst) < len(in.wPartOf) && in.wPartOf[dst] >= 0
}

// TargetPart returns the part index of a target.
func (in *Inter) TargetPart(dst graph.Vertex) (int32, bool) {
	if !in.Targets(dst) {
		return 0, false
	}
	return in.wPartOf[dst], true
}

// AddTableWords charges the Lemma 8 storage to a tally: the relay
// representatives and the per-target sequences. (Vicinities are charged by
// the owning scheme.)
func (in *Inter) AddTableWords(t *space.Tally) {
	for u := 0; u < in.g.N(); u++ {
		t.Add("lemma8-relay-reps", u, in.parts)
		words := 0
		f := &in.flat
		for si := f.srcOff[u]; si < f.srcOff[u+1]; si++ {
			words += 2 + int(f.wpOff[si+1]-f.wpOff[si]) // target key + relay flag + waypoints
		}
		t.Add("lemma8-sequences", u, words)
	}
}

// InterScheme wraps Inter as a standalone simnet.Scheme for experiment E4.
type InterScheme struct {
	In *Inter
}

var _ simnet.Scheme = (*InterScheme)(nil)

// Name implements simnet.Scheme.
func (s *InterScheme) Name() string { return "lemma8-inter" }

// Graph implements simnet.Scheme.
func (s *InterScheme) Graph() *graph.Graph { return s.In.g }

// Prepare implements simnet.Scheme.
func (s *InterScheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	return s.In.Start(src, dst)
}

// Next implements simnet.Scheme.
func (s *InterScheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	return s.In.Step(at, p.(*InterState))
}

// HeaderWords implements simnet.Scheme.
func (s *InterScheme) HeaderWords(p simnet.Packet) int { return p.(*InterState).Words() }

// TableWords implements simnet.Scheme.
func (s *InterScheme) TableWords(v graph.Vertex) int {
	t := space.NewTally(s.In.g.N())
	s.In.AddTableWords(t)
	for u := 0; u < s.In.g.N(); u++ {
		t.Add("vicinity", u, s.In.vics[u].Words())
	}
	return t.At(int(v))
}

// LabelWords implements simnet.Scheme.
func (s *InterScheme) LabelWords(graph.Vertex) int { return 2 }

// StretchBound implements simnet.Scheme: Lemma 8 proves (1 + 2/(b-1))d.
func (s *InterScheme) StretchBound(d float64) float64 {
	return (1 + 2/float64(s.In.b-1)) * d
}
