package treeroute

import (
	"fmt"
	"unsafe"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/wire"
)

// recWireBytes is the on-disk size of one routing record: five little-endian
// int32 fields in declaration order (enter, exit, parentPort, childLo,
// childHi). The record struct has the same layout - all fields are 4-byte
// values, so there is no padding - which is what lets a decoded tree alias
// its records straight out of an mmap'd snapshot. The assertion breaks the
// build if the struct ever grows or reorders.
const recWireBytes = 20

var _ [recWireBytes]struct{} = [unsafe.Sizeof(rec{})]struct{}{}

// EncodeFlatForest writes a set of trees in the v2 flat layout: per-tree
// sizes, then the concatenation of every tree's vertex, record and child
// arrays as aligned fixed-width sections. nil trees are encoded as size 0.
// Decode aliases the three big arrays in place (the routing records are the
// per-hop hot path), so loading a forest costs a Fibonacci-index rebuild
// instead of the map-and-sort DFS of New.
func EncodeFlatForest(e *wire.Encoder, trees []*Tree) {
	e.Uvarint(uint64(len(trees)))
	totalVs, totalChild := 0, 0
	for _, t := range trees {
		if t == nil {
			e.Uvarint(0)
			continue
		}
		e.Uvarint(uint64(len(t.vs)))
		totalVs += len(t.vs)
		totalChild += len(t.childEnter)
	}
	e.ArrayHeader(4, 4, totalVs)
	for _, t := range trees {
		if t != nil {
			for _, v := range t.vs {
				e.Vertex(v)
			}
		}
	}
	e.ArrayHeader(recWireBytes, 4, totalVs)
	for _, t := range trees {
		if t == nil {
			continue
		}
		for i := range t.rec {
			r := &t.rec[i]
			e.Int32(int32(r.enter))
			e.Int32(int32(r.exit))
			e.Int32(int32(r.parentPort))
			e.Int32(r.childLo)
			e.Int32(r.childHi)
		}
	}
	e.ArrayHeader(4, 4, totalChild)
	for _, t := range trees {
		if t != nil {
			for _, ce := range t.childEnter {
				e.Int32(int32(ce))
			}
		}
	}
	e.ArrayHeader(4, 4, totalChild)
	for _, t := range trees {
		if t != nil {
			for _, cp := range t.childPort {
				e.Port(cp)
			}
		}
	}
}

// leI32 reads the i-th little-endian int32 of a raw array payload.
func leI32(b []byte, i int) int32 {
	b = b[i*4 : i*4+4]
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

// DecodeFlatForest reads trees written by EncodeFlatForest over g. Every
// decoded field that indexes memory is validated first - vertex ids sorted,
// unique and in range; ports within the vertex's degree; child ranges
// within the tree's child arrays; exactly one root record per tree - so a
// corrupt snapshot fails instead of panicking or faulting, even though the
// arrays alias the snapshot bytes. Only the per-tree position indexes are
// (re)built on the heap, in parallel.
func DecodeFlatForest(d *wire.Decoder, g *graph.Graph) ([]*Tree, error) {
	n := g.N()
	ntrees := int(d.Uvarint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if ntrees < 0 || ntrees > d.Remaining() {
		d.Failf("forest claims %d trees with %d bytes remaining", ntrees, d.Remaining())
		return nil, d.Err()
	}
	if !d.Alloc(int64(ntrees) * 16) {
		return nil, d.Err()
	}
	sizes := make([]int, ntrees)
	totalVs := 0
	for i := range sizes {
		sz := int(d.Uvarint())
		if sz < 0 || sz > n {
			d.Failf("tree %d claims %d vertices (n=%d)", i, sz, n)
			return nil, d.Err()
		}
		sizes[i] = sz
		totalVs += sz
	}
	vsAll := decodeVertexAll(d, totalVs)
	recAll := decodeRecAll(d, totalVs)
	if d.Err() != nil {
		return nil, d.Err()
	}
	totalChild := 0
	for _, sz := range sizes {
		if sz > 0 {
			totalChild += sz - 1
		}
	}
	ceAll := decodeLabelAll(d, totalChild)
	cpAll := decodePortAll(d, totalChild)
	if d.Err() != nil {
		return nil, d.Err()
	}
	// Tree structs and their position tables (power-of-two >= 2x size, so
	// at most 4 slots per vertex; a slot takes 4 bytes when every id of the
	// tree fits 16 bits and 8 otherwise) are rebuilt on the heap; charge
	// each struct at its size and the tables at the wide width.
	if !d.Alloc(int64(ntrees)*int64(unsafe.Sizeof(Tree{})) + int64(totalVs)*32) {
		return nil, d.Err()
	}
	trees := make([]*Tree, ntrees)
	vo, co := 0, 0
	for i, sz := range sizes {
		if sz == 0 {
			continue
		}
		nc := sz - 1
		trees[i] = &Tree{
			root:       graph.NoVertex,
			vs:         vsAll[vo : vo+sz : vo+sz],
			rec:        recAll[vo : vo+sz : vo+sz],
			childEnter: ceAll[co : co+nc : co+nc],
			childPort:  cpAll[co : co+nc : co+nc],
		}
		vo += sz
		co += nc
	}
	err := parallel.ForErrBlocks(ntrees, func(i int) error {
		t := trees[i]
		if t == nil {
			return nil
		}
		if err := t.validateFlat(g); err != nil {
			return err
		}
		t.buildPos()
		return nil
	})
	if err != nil {
		d.Failf("%v", err)
		return nil, d.Err()
	}
	return trees, nil
}

// validateFlat checks the invariants Next, WordsAt and the port-walking
// callers rely on, for a tree whose arrays came straight off the wire.
func (t *Tree) validateFlat(g *graph.Graph) error {
	n := g.N()
	for i, v := range t.vs {
		if v < 0 || int(v) >= n {
			return errFlat("vertex %d out of range", v)
		}
		if i > 0 && t.vs[i-1] >= v {
			return errFlat("vertices not sorted and unique at %d", v)
		}
	}
	for i := range t.rec {
		r := &t.rec[i]
		v := t.vs[i]
		deg := graph.Port(g.Degree(v))
		if r.parentPort == graph.NoPort {
			if t.root != graph.NoVertex {
				return errFlat("two roots %d and %d", t.root, v)
			}
			t.root = v
		} else if r.parentPort < 0 || r.parentPort >= deg {
			return errFlat("parent port %d of %d outside degree %d", r.parentPort, v, deg)
		}
		if r.enter < 0 || r.exit < r.enter {
			return errFlat("vertex %d has invalid interval [%d,%d]", v, r.enter, r.exit)
		}
		if r.childLo < 0 || r.childHi < r.childLo || int(r.childHi) > len(t.childEnter) {
			return errFlat("vertex %d has invalid child range [%d,%d)", v, r.childLo, r.childHi)
		}
		// Endpoint does not range-check ports, so every port this record can
		// hand to the forwarding loop must be validated against the owner's
		// degree here, before the tree serves a single hop.
		for j := r.childLo; j < r.childHi; j++ {
			if cp := t.childPort[j]; cp < 0 || cp >= deg {
				return errFlat("child port %d of %d outside degree %d", cp, v, deg)
			}
		}
	}
	if t.root == graph.NoVertex {
		return errFlat("no root record")
	}
	return nil
}

func errFlat(format string, args ...any) error {
	return fmt.Errorf("treeroute: flat decode: "+format, args...)
}

// decodeVertexAll reads the concatenated vertex array, aliasing when
// possible.
func decodeVertexAll(d *wire.Decoder, want int) []graph.Vertex {
	vs := d.VertexArray()
	if d.Err() == nil && len(vs) != want {
		d.Failf("forest vertex array holds %d ids, want %d", len(vs), want)
		return nil
	}
	return vs
}

// decodeRecAll reads the concatenated record array. On a little-endian host
// with 4-byte alignment the records are aliased in place (the struct layout
// equals the wire layout); otherwise they are re-assembled field-wise on
// the heap.
func decodeRecAll(d *wire.Decoder, want int) []rec {
	data, c := d.Array(recWireBytes, 4)
	if d.Err() != nil {
		return nil
	}
	if c != want {
		d.Failf("forest record array holds %d records, want %d", c, want)
		return nil
	}
	if c == 0 {
		return nil
	}
	if wire.Aliasable(data, 4) {
		return unsafe.Slice((*rec)(unsafe.Pointer(&data[0])), c)
	}
	if !d.Alloc(int64(c) * recWireBytes) {
		return nil
	}
	out := make([]rec, c)
	for i := range out {
		b := data[i*recWireBytes:]
		out[i] = rec{
			enter:      Label(leI32(b, 0)),
			exit:       Label(leI32(b, 1)),
			parentPort: graph.Port(leI32(b, 2)),
			childLo:    leI32(b, 3),
			childHi:    leI32(b, 4),
		}
	}
	return out
}

func decodeLabelAll(d *wire.Decoder, want int) []Label {
	xs := d.Int32Array()
	if d.Err() == nil && len(xs) != want {
		d.Failf("forest child-enter array holds %d labels, want %d", len(xs), want)
		return nil
	}
	if len(xs) == 0 {
		return nil
	}
	// Label is int32; reinterpret the (possibly aliased) slice in place.
	return unsafe.Slice((*Label)(unsafe.Pointer(&xs[0])), len(xs))
}

func decodePortAll(d *wire.Decoder, want int) []graph.Port {
	ps := d.PortArray()
	if d.Err() == nil && len(ps) != want {
		d.Failf("forest child-port array holds %d ports, want %d", len(ps), want)
		return nil
	}
	return ps
}
