// Package vicinity implements the vertex vicinities B(u, l) of Section 2 of
// the paper: the l closest vertices of u, with ties broken by lexicographic
// order of vertex ids, together with the first-edge tables of Lemma 2 that
// route a message from u to any v in B(u, l) on a shortest path.
//
// Membership lookups - the innermost operation of every scheme's forwarding
// loop - go through a flat open-addressed table of slots, each a member id
// and its first hop, filled to a load factor below 3/4, so a hop usually
// costs a single cache-line fetch and allocates nothing. A slot takes 4
// bytes (two uint16 fields) when every member id of its set is at most
// 0xFFFE, which holds for every set of a graph with n <= 65535, and 8 bytes
// (two 32-bit ids) otherwise. The member's distance stays in the member
// arrays: Lemma 2 stores it (Words counts it, and snapshots keep it), but no
// forwarding decision reads it.
package vicinity

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
)

// nearBufPool recycles the truncated-search result buffer across Build
// calls: every entry is copied into the Set before the buffer is returned,
// so with a warm pool the per-vertex search allocates nothing.
var nearBufPool = sync.Pool{New: func() any { return new([]graph.NearestResult) }}

// Member is one vertex of a vicinity together with the routing information
// Lemma 2 stores for it: the first hop of a shortest path from the center.
type Member struct {
	V     graph.Vertex
	Dist  float64
	First graph.Vertex // first vertex after the center on a shortest path; == V for neighbors, == center for the center itself
}

// Set is the vicinity B(u, l) of a single center vertex u.
//
// Members are structure-of-array views in (dist, id) order: ids, first-hop
// member indexes and distances - the arrays the v2 snapshot section holds.
// Build fills them at the widest widths (uint32 indexes, float64
// distances); a decoded set aliases the snapshot bytes - for a served
// snapshot, a read-only mmap - at whatever widths the encoder picked, and
// must never be written. Either way the arrays are checked by
// validateViews before the Set escapes.
type Set struct {
	center graph.Vertex
	radius float64 // r_u(l) of the paper
	// Exactly one of memFirst/memFirst16 holds the member index of each
	// first hop (Lemma 2: the first vertex of a shortest center-to-member
	// path is itself a member); the encoder picks the narrowest width that
	// fits the largest index. Exactly one of distU16/distU/distF is set
	// likewise: small integral distances ride a uint16 array, large
	// integral ones a uint32 array, general ones a float64 array.
	memV       []graph.Vertex
	memFirst   []uint32
	memFirst16 []uint16
	distU      []uint32
	distU16    []uint16
	distF      []float64
	// Open-addressed membership table (Fibonacci hash, multiply-shift range
	// reduction, linear probing, load factor < 3/4). Each slot packs the id
	// the probe compares against and the Lemma 2 first hop the forwarding
	// loop asks for, so Contains/FirstHop usually resolve with a single
	// cache-line fetch; a sorted-array binary search costs O(log l)
	// scattered probes per hop, which dominated serving profiles at
	// n = 10^4. The member's distance stays out of the slot: no routing
	// decision reads it, and MemberDist serves the rest. The first hop stays
	// a vertex id rather than a member index, so reading it costs no second
	// dependent miss into the member arrays.
	//
	// A set whose member ids are all at most maxNarrowID keys its table in
	// 4-byte slots (ent16), any other set in 8-byte ones (ent32). The width
	// comes from the set's own members, so every builder of one set picks
	// the same one, and only that pointer is ever published.
	//
	// The table is built on first lookup - the index analogue of demand
	// paging, and what keeps the mmap cold start free of per-member work -
	// and the build cannot fail: validateViews has ruled out a repeated
	// member id. Racing builders produce identical tables (first CAS wins).
	//
	// The table is published as a pointer to its first slot plus its slot
	// count, both living in the Set struct itself: a lookup touches only the
	// Set's cache line before the probed slot, with no intermediate
	// table-descriptor object to chase. size is stored before the pointer is
	// published, so a reader that observes a non-nil pointer also observes
	// the matching size; racing lazy builders store identical sizes, making
	// the overlap harmless.
	ent16 atomic.Pointer[slot[uint16]]
	ent32 atomic.Pointer[slot[uint32]]
	size  atomic.Uint32 // slot count of the published table
}

// slot is one entry of a membership table. Keys are stored as v+1 so the
// zero value marks an empty slot: a freshly made (zeroed) table is ready for
// inserts without a sentinel fill pass, which is what keeps the index
// rebuild cheap on snapshot load.
type slot[K uint16 | uint32] struct {
	v     K // member id + 1; 0 marks an empty slot
	first K
}

// maxNarrowID is the largest member id a 16-bit slot can key: its key v+1
// must fit a uint16.
const maxNarrowID = 0xFFFE

// fibMul is the 32-bit Fibonacci hashing multiplier, floor(2^32 / phi).
const fibMul = 2654435769

// homeSlot maps v to its home slot in a table of size slots: the Fibonacci
// hash of v scaled from [0, 2^32) to [0, size) by a multiply-shift, so the
// table size need not be a power of two.
func homeSlot(v graph.Vertex, size uint32) uint32 {
	return uint32(uint64(uint32(v)*fibMul) * uint64(size) >> 32)
}

// lookup returns the first hop stored for member v and whether v is a
// member, building the table on first use. A 16-bit table keys only ids up
// to maxNarrowID, so a larger id - whose truncated key could equal a
// member's - misses without probing; so does a negative id.
func (s *Set) lookup(v graph.Vertex) (graph.Vertex, bool) {
	for {
		if p := s.ent16.Load(); p != nil {
			if uint32(v) > maxNarrowID {
				return graph.NoVertex, false
			}
			return probe(p, s.size.Load(), v)
		}
		if p := s.ent32.Load(); p != nil {
			if v < 0 {
				return graph.NoVertex, false
			}
			return probe(p, s.size.Load(), v)
		}
		s.buildTable()
	}
}

// probe looks member id v, which K can key, up in the table of size slots
// at p.
func probe[K uint16 | uint32](p *slot[K], size uint32, v graph.Vertex) (graph.Vertex, bool) {
	tbl := unsafe.Slice(p, size)
	key := K(v) + 1
	i := homeSlot(v, size)
	for {
		e := &tbl[i]
		if e.v == key {
			return graph.Vertex(e.first), true
		}
		if e.v == 0 {
			return graph.NoVertex, false
		}
		if i++; i == size {
			i = 0
		}
	}
}

// tblSizeFor returns the table size for c members: c + ceil(c/3) + 1 slots,
// a load factor below 3/4 that always leaves an empty slot to end a probe.
func tblSizeFor(c int) int {
	return c + (c+2)/3 + 1
}

// buildTable builds the membership index of s on first lookup, in 4-byte
// slots when every member id is at most maxNarrowID. It cannot fail;
// concurrent callers may race, build identical tables and agree on
// whichever CAS publishes first.
func (s *Set) buildTable() {
	for _, v := range s.memV {
		if v > maxNarrowID {
			fillTable(s, &s.ent32)
			return
		}
	}
	fillTable(s, &s.ent16)
}

func fillTable[K uint16 | uint32](s *Set, ent *atomic.Pointer[slot[K]]) {
	size := uint32(tblSizeFor(s.Size()))
	tbl := make([]slot[K], size)
	for i, v := range s.memV {
		j := homeSlot(v, size)
		for tbl[j].v != 0 {
			if j++; j == size {
				j = 0
			}
		}
		tbl[j] = slot[K]{v: K(v) + 1, first: K(s.MemberFirst(i))}
	}
	s.size.Store(size)
	ent.CompareAndSwap(nil, &tbl[0])
}

// validateViews checks the SoA member views of a set in one sequential
// pass: ids in [0,n), first hops in-range member indexes, distances
// non-negative and not NaN, members in strictly increasing (dist, id) order
// - the canonical order every encoder writes, which rules out a member
// repeated at one distance - no member listed again at another distance,
// and the center present. The storage widths are resolved once per set, not
// once per member. This pass is the only per-member work of the mmap load
// path; the membership index itself is built on first lookup.
func (s *Set) validateViews(n int) error {
	seen, _ := seenPool.Get().(*memberSeen)
	if seen == nil || len(seen.stamp) < n {
		seen = &memberSeen{stamp: make([]uint32, n)}
	}
	seen.epoch++
	if seen.epoch == 0 {
		clear(seen.stamp)
		seen.epoch = 1
	}
	var err error
	if s.memFirst != nil {
		err = validateFirst(s, s.memFirst, n, seen)
	} else {
		err = validateFirst(s, s.memFirst16, n, seen)
	}
	seenPool.Put(seen)
	return err
}

// memberSeen is the epoch-stamped id set of one validation pass: id v is
// listed in the set under check when stamp[v] == epoch, so each set starts
// with one increment instead of an O(n) clear. validateViews draws one from
// seenPool, which keeps about one per worker.
type memberSeen struct {
	stamp []uint32
	epoch uint32
}

var seenPool sync.Pool

func validateFirst[F uint16 | uint32](s *Set, first []F, n int, seen *memberSeen) error {
	switch {
	case s.distU16 != nil:
		return validateMembers(s.memV, first, s.distU16, n, s.center, seen)
	case s.distU != nil:
		return validateMembers(s.memV, first, s.distU, n, s.center, seen)
	}
	return validateMembers(s.memV, first, s.distF, n, s.center, seen)
}

func validateMembers[F uint16 | uint32, D uint16 | uint32 | float64](memV []graph.Vertex, first []F, dist []D, n int, center graph.Vertex, seen *memberSeen) error {
	stamp, ep := seen.stamp, seen.epoch
	c := len(memV)
	first, dist = first[:c], dist[:c]
	centerSeen := false
	prevD, prevV := D(0), graph.Vertex(-1)
	for i, v := range memV {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("member %d of B(%d) out of range", i, center)
		}
		if j := int(first[i]); j >= c {
			return fmt.Errorf("first-hop index %d of member %d in B(%d) out of range", j, i, center)
		}
		d := dist[i]
		if !(d >= 0) {
			return fmt.Errorf("member %d of B(%d) has invalid distance %v", v, center, float64(d))
		}
		// (dist, id) order, without a branch on the distance tie: ties are
		// common and unpredictable. The first member passes against the
		// (0, -1) start, since it has d >= 0 and v >= 0.
		if b2i(d < prevD)|b2i(d == prevD)&b2i(v <= prevV) != 0 {
			return fmt.Errorf("members of B(%d) not in (dist, id) order at %d (duplicate %d?)", center, i, v)
		}
		prevD, prevV = d, v
		if stamp[v] == ep {
			return fmt.Errorf("member %d of B(%d) listed twice", v, center)
		}
		stamp[v] = ep
		centerSeen = centerSeen || v == center
	}
	if !centerSeen {
		return fmt.Errorf("B(%d) does not contain its center", center)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Build computes B(u, l). The result always contains u itself (at distance
// 0), so l must be at least 1.
func Build(g *graph.Graph, u graph.Vertex, l int) (*Set, error) {
	s, _, err := build(g, u, l, false)
	return s, err
}

// BuildTouch computes B(u, l) exactly like Build and additionally returns
// the settled set of the truncated search: every vertex the (l+1)-bounded
// Nearest search popped, in (dist, id) pop order. The settled set is the
// touch footprint of the search - an edge update can change B(u, l) only if
// one of its endpoints was settled (any relaxation the search performed or
// rejected had both endpoints of its edge inside the settled set, and a new
// shorter path into the vicinity must enter through a settled vertex) - and
// feeds the reverse Touch index the repair path uses to compute dirty sets.
func BuildTouch(g *graph.Graph, u graph.Vertex, l int) (*Set, []graph.Vertex, error) {
	return build(g, u, l, true)
}

func build(g *graph.Graph, u graph.Vertex, l int, touch bool) (*Set, []graph.Vertex, error) {
	if l < 1 {
		return nil, nil, fmt.Errorf("vicinity: need l >= 1, got %d", l)
	}
	// A single truncated search for l+1 vertices serves both the members and
	// the radius: Nearest results are prefixes of the global (dist, id)
	// order, so the first l entries are exactly B(u, l) and the entry after
	// them (if any) is the first excluded vertex computeRadius needs. This
	// halves the searches of the old Build+computeRadius pair without
	// changing a bit of the output.
	bufp := nearBufPool.Get().(*[]graph.NearestResult)
	defer func() {
		nearBufPool.Put(bufp)
	}()
	all := g.AppendNearest((*bufp)[:0], u, l+1)
	*bufp = all[:0] // keep the grown backing array for the next Build
	var settled []graph.Vertex
	if touch {
		settled = make([]graph.Vertex, len(all))
		for i, nr := range all {
			settled[i] = nr.V
		}
	}
	near := all
	if len(near) > l {
		near = near[:l]
	}
	c := len(near)
	s := &Set{
		center:   u,
		radius:   computeRadius(all, c),
		memV:     make([]graph.Vertex, c),
		memFirst: make([]uint32, c),
		distF:    make([]float64, c),
	}
	// Construction-time position map for the parent walks.
	pos := make(map[graph.Vertex]uint32, c)
	for i, nr := range near {
		// The center and its neighbors are their own first hops.
		first := uint32(i)
		if nr.V != u && nr.Parent != u {
			// Walk up: parents appear earlier in (dist, id) order, so their
			// first hops are already final.
			pj, ok := pos[nr.Parent]
			if !ok {
				return nil, nil, fmt.Errorf("vicinity: parent %d of %d missing from truncated search", nr.Parent, nr.V)
			}
			first = s.memFirst[pj]
		}
		s.memV[i], s.memFirst[i], s.distF[i] = nr.V, first, nr.Dist
		pos[nr.V] = uint32(i)
	}
	if err := s.validateViews(g.N()); err != nil {
		return nil, nil, fmt.Errorf("vicinity: %w", err)
	}
	return s, settled, nil
}

// computeRadius computes r_u(l): the largest value r such that every vertex
// at distance exactly r from u belongs to the set. Distance classes below the
// maximum member distance are complete by construction (Nearest closes
// classes), so the radius is the maximum member distance unless the last
// class was truncated by the size cutoff. all is the (l+1)-truncated search
// whose first c entries are the members; the entry after them (when
// present) is the closest excluded vertex.
func computeRadius(all []graph.NearestResult, c int) float64 {
	if c == 0 {
		return 0
	}
	last := all[c-1].Dist
	// The last distance class is complete iff no excluded vertex sits at
	// exactly distance `last`.
	if len(all) <= c {
		return last // vicinity covers every reachable vertex
	}
	if all[c].Dist == last {
		// Truncated class: radius is the largest complete class below it.
		for i := c - 1; i >= 0; i-- {
			if all[i].Dist < last {
				return all[i].Dist
			}
		}
		return 0
	}
	return last
}

// BuildAll computes B(u, l) for every vertex in parallel.
func BuildAll(g *graph.Graph, l int) ([]*Set, error) {
	sets := make([]*Set, g.N())
	if err := parallel.ForErr(g.N(), func(u int) error {
		s, err := Build(g, graph.Vertex(u), l)
		if err != nil {
			return err
		}
		sets[u] = s
		return nil
	}); err != nil {
		return nil, err
	}
	return sets, nil
}

// Center returns the vertex this vicinity belongs to.
func (s *Set) Center() graph.Vertex { return s.center }

// Size returns the number of members (including the center).
func (s *Set) Size() int { return len(s.memV) }

// MemberV returns the id of the i-th member in (dist, id) order.
func (s *Set) MemberV(i int) graph.Vertex { return s.memV[i] }

// MemberDist returns the distance of the i-th member.
func (s *Set) MemberDist(i int) float64 {
	switch {
	case s.distU16 != nil:
		return float64(s.distU16[i])
	case s.distU != nil:
		return float64(s.distU[i])
	}
	return s.distF[i]
}

// firstIdx returns the member index of the i-th member's first hop.
func (s *Set) firstIdx(i int) uint32 {
	if s.memFirst != nil {
		return s.memFirst[i]
	}
	return uint32(s.memFirst16[i])
}

// MemberFirst returns the first hop stored for the i-th member.
func (s *Set) MemberFirst(i int) graph.Vertex { return s.memV[s.firstIdx(i)] }

// Radius returns r_u(l).
func (s *Set) Radius() float64 { return s.radius }

// Contains reports whether v is in the vicinity.
func (s *Set) Contains(v graph.Vertex) bool {
	_, ok := s.lookup(v)
	return ok
}

// FirstHop returns the first vertex after the center on a shortest path to
// member v. This is the Lemma 2 routing table entry.
func (s *Set) FirstHop(v graph.Vertex) (graph.Vertex, bool) {
	if v == s.center {
		return graph.NoVertex, false
	}
	return s.lookup(v)
}

// Members materializes the members in (dist, id) order into a fresh
// slice; hot loops should use the indexed accessors instead.
func (s *Set) Members() []Member {
	ms := make([]Member, s.Size())
	for i := range ms {
		ms[i] = Member{V: s.memV[i], Dist: s.MemberDist(i), First: s.MemberFirst(i)}
	}
	return ms
}

// MemberSets returns the member ids of every set in (dist, id) order, cut
// from one slab: the input form of the Lemma 5 hitting set and the Lemma 6
// coloring.
func MemberSets(sets []*Set) [][]graph.Vertex {
	total := 0
	for _, s := range sets {
		total += s.Size()
	}
	slab := make([]graph.Vertex, 0, total)
	out := make([][]graph.Vertex, len(sets))
	for u, s := range sets {
		lo := len(slab)
		slab = append(slab, s.memV...)
		out[u] = slab[lo:len(slab):len(slab)]
	}
	return out
}

// Equal reports whether two vicinities hold the exact same routing state:
// same center, radius, and member triples (id, distance, first hop) in the
// canonical (dist, id) order. Two equal sets are observationally identical -
// every Contains/FirstHop/MemberV/MemberDist/MemberFirst/MaxDist call
// agrees - which is what lets the repair path treat a rebuilt-but-unchanged
// vicinity as clean and stop its dirtiness from cascading.
func (s *Set) Equal(o *Set) bool {
	if s == o {
		return true
	}
	if o == nil || s.center != o.center || s.radius != o.radius || s.Size() != o.Size() {
		return false
	}
	for i, c := 0, s.Size(); i < c; i++ {
		if s.MemberV(i) != o.MemberV(i) || s.MemberDist(i) != o.MemberDist(i) ||
			s.MemberFirst(i) != o.MemberFirst(i) {
			return false
		}
	}
	return true
}

// MaxDist returns the distance of the farthest member.
func (s *Set) MaxDist() float64 {
	c := s.Size()
	if c == 0 {
		return 0
	}
	return s.MemberDist(c - 1)
}

// Words returns the space of the Lemma 2 table in words: one (vertex, first
// edge, distance) triple per member.
func (s *Set) Words() int { return 3 * s.Size() }

// InflatedSize computes the paper's x-tilde = alpha * x * log n inflation,
// clamped to [x, n]: the vicinity size used whenever the paper writes
// B(u, q-tilde). factor plays the role of the "large enough constant" alpha;
// the correctness of every construction in this module tree is independent
// of the factor (hitting sets and colorings are built against the actual
// vicinities), so the factor only moves space constants.
func InflatedSize(x int, n int, factor float64) int {
	if x < 1 {
		x = 1
	}
	l := int(math.Ceil(factor * float64(x) * math.Log(float64(n))))
	if l < x {
		l = x
	}
	if l < 1 {
		l = 1
	}
	if l > n {
		l = n
	}
	return l
}
