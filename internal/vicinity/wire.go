package vicinity

import (
	"math"
	"unsafe"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/wire"
)

// Tags of the v2 distance array: integral distances (sums of integer edge
// weights) ride a uint16 or uint32 array depending on their maximum,
// everything else a float64 array.
const (
	distSeqFloat      = 0
	distSeqIntegral   = 1
	distSeqIntegral16 = 2
)

// Tags of the v2 first-hop index array: member indexes are bounded by the
// largest vicinity size, which fits 16 bits for every practical l.
const (
	firstIdxU32 = 0
	firstIdxU16 = 1
)

// EncodeSetsV2 writes one vicinity per vertex in the v2 aligned layout:
// radii (FloatSeq), member offsets (n+1), then the member structure of
// arrays - ids in (dist, id) order, first hops as member indexes (by
// Lemma 2 the first vertex of a shortest center-to-member path is itself a
// member, so the index validates membership for free) in the narrowest
// width that fits, and distances as a tagged uint16, uint32 or float64
// array. The fixed-width arrays decode as
// zero-copy aliases over the mapped snapshot; the per-set Fibonacci-hash
// membership tables are not serialized at all - they are rebuilt on first
// lookup. The section this lands in must be an AlignedSection.
func EncodeSetsV2(e *wire.Encoder, sets []*Set) {
	n := len(sets)
	radii := make([]float64, n)
	offs := make([]uint32, n+1)
	total := 0
	for u, s := range sets {
		radii[u] = s.radius
		total += s.Size()
		offs[u+1] = uint32(total)
	}
	e.FloatSeq(radii)
	e.Uint32Array(offs)
	memV := make([]graph.Vertex, 0, total)
	for _, s := range sets {
		memV = append(memV, s.memV...)
	}
	e.VertexArray(memV)
	firstIdx := make([]uint32, 0, total)
	maxIdx := uint32(0)
	for _, s := range sets {
		for i, c := 0, s.Size(); i < c; i++ {
			j := s.firstIdx(i)
			maxIdx = max(maxIdx, j)
			firstIdx = append(firstIdx, j)
		}
	}
	if maxIdx < 1<<16 {
		e.Byte(firstIdxU16)
		f16 := make([]uint16, len(firstIdx))
		for i, j := range firstIdx {
			f16[i] = uint16(j)
		}
		e.Uint16Array(f16)
	} else {
		e.Byte(firstIdxU32)
		e.Uint32Array(firstIdx)
	}
	dists := make([]float64, 0, total)
	integral := true
	maxDist := 0.0
	for _, s := range sets {
		for i, c := 0, s.Size(); i < c; i++ {
			x := s.MemberDist(i)
			if !(x >= 0 && x < (1<<32) && x == math.Trunc(x)) {
				integral = false
			}
			if x > maxDist {
				maxDist = x
			}
			dists = append(dists, x)
		}
	}
	switch {
	case integral && maxDist < 1<<16:
		e.Byte(distSeqIntegral16)
		du := make([]uint16, len(dists))
		for i, x := range dists {
			du[i] = uint16(x)
		}
		e.Uint16Array(du)
	case integral:
		e.Byte(distSeqIntegral)
		du := make([]uint32, len(dists))
		for i, x := range dists {
			du[i] = uint32(x)
		}
		e.Uint32Array(du)
	default:
		e.Byte(distSeqFloat)
		e.Float64Array(dists)
	}
}

// DecodeSetsV2 reads n vicinities written by EncodeSetsV2. The member
// arrays alias the snapshot bytes (read-only); the per-member work of the
// mmap load path is one validation pass per set (Set.validateViews), run on
// the worker pool, and the membership hash tables are built lazily on first
// lookup, so the cold start stays near page-table cost. The error of the
// lowest failing set is reported, whatever the worker count.
func DecodeSetsV2(d *wire.Decoder, n int) ([]*Set, error) {
	// The Set slab, its pointer slice and the radii are charged before
	// allocation.
	if !d.Alloc(int64(n) * int64(unsafe.Sizeof(Set{})+16)) {
		return nil, d.Err()
	}
	radii := make([]float64, n)
	d.FloatSeq(radii)
	offs := d.Uint32Array()
	memV := d.VertexArray()
	var firstIdx []uint32
	var firstIdx16 []uint16
	switch d.Byte() {
	case firstIdxU32:
		firstIdx = d.Uint32Array()
	case firstIdxU16:
		firstIdx16 = d.Uint16Array()
	default:
		if d.Err() == nil {
			d.Failf("invalid first-hop-array tag")
		}
	}
	var distU []uint32
	var distU16 []uint16
	var distF []float64
	switch d.Byte() {
	case distSeqIntegral:
		distU = d.Uint32Array()
	case distSeqIntegral16:
		distU16 = d.Uint16Array()
	case distSeqFloat:
		distF = d.Float64Array()
	default:
		if d.Err() == nil {
			d.Failf("invalid distance-array tag")
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(offs) != n+1 || offs[0] != 0 {
		d.Failf("vicinity offsets have length %d, want %d starting at 0", len(offs), n+1)
		return nil, d.Err()
	}
	total := len(memV)
	if int(offs[n]) != total ||
		(firstIdx != nil && len(firstIdx) != total) || (firstIdx16 != nil && len(firstIdx16) != total) ||
		(firstIdx == nil && firstIdx16 == nil && total != 0) ||
		(distU != nil && len(distU) != total) || (distU16 != nil && len(distU16) != total) ||
		(distF != nil && len(distF) != total) ||
		(distU == nil && distU16 == nil && distF == nil && total != 0) {
		d.Failf("vicinity member arrays disagree on the member count")
		return nil, d.Err()
	}
	for u := 0; u < n; u++ {
		if offs[u+1] < offs[u] {
			d.Failf("vicinity offsets not monotone at %d", u)
			return nil, d.Err()
		}
		c := int(offs[u+1] - offs[u])
		if c < 1 || c > n {
			d.Failf("B(%d) claims %d members (n=%d)", u, c, n)
			return nil, d.Err()
		}
	}
	slab := make([]Set, n)
	sets := make([]*Set, n)
	if err := parallel.ForErrBlocks(n, func(u int) error {
		base, end := int(offs[u]), int(offs[u+1])
		s := &slab[u]
		s.center = graph.Vertex(u)
		s.radius = radii[u]
		s.memV = memV[base:end:end]
		if firstIdx != nil {
			s.memFirst = firstIdx[base:end:end]
		} else {
			s.memFirst16 = firstIdx16[base:end:end]
		}
		switch {
		case distU != nil:
			s.distU = distU[base:end:end]
		case distU16 != nil:
			s.distU16 = distU16[base:end:end]
		default:
			s.distF = distF[base:end:end]
		}
		sets[u] = s
		return s.validateViews(n)
	}); err != nil {
		d.Failf("%v", err)
		return nil, d.Err()
	}
	return sets, nil
}
