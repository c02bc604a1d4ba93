package tzroute

import (
	"fmt"
	"math"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/simnet"
	"compactroute/internal/treeroute"
	"compactroute/internal/wire"
)

// WireKindNameV2 is the registered snapshot kind of the Thorup-Zwick
// baseline: cluster trees in the flat aligned format and the bunch transpose
// stored directly as aligned arrays, both aliased over the snapshot bytes on
// decode, so a cold start rebuilds no tree.
const WireKindNameV2 = "tzroute/v2"

func init() { wire.Register(WireKindNameV2, decodeSnapshotV2) }

// Section names of the Thorup-Zwick snapshot.
const (
	secParams  = "tz/params"
	secLevels  = "tz/levels"
	secNearest = "tz/nearest"
	secTrees   = "tz/trees"
	secBunches = "tz/bunches"
)

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindNameV2 }

// EncodeSnapshot implements wire.Encodable, writing the v2 layout: the
// sampled levels as uvarint deltas, the nearest-landmark tables as aliased
// vertex arrays with compressed distances, every cluster tree in the flat
// aligned format, and the bunch transpose as three aliased arrays (prefix
// offsets, roots, distances). The InBunch binary search - the innermost
// probe of Prepare - then runs straight off the mapped file, and decode
// rebuilds nothing but the per-tree position indexes.
func (s *Scheme) EncodeSnapshot(snap *wire.Snapshot) error {
	p := snap.Section(secParams)
	p.Uvarint(uint64(s.h.K))
	s.h.EncodeWireV2(snap.Section(secLevels), snap.AlignedSection(secNearest),
		snap.AlignedSection(secTrees), snap.AlignedSection(secBunches))
	return nil
}

// EncodeWireV2 writes the hierarchy's v2 wire form into the four caller-named
// sections: the sampled levels as uvarint deltas (A_0 = V stays implicit),
// the nearest-landmark tables as aliased vertex arrays with compressed
// distances, the cluster trees in the flat aligned format, and the bunch
// transpose as three aliased arrays (prefix offsets, roots, distances). The
// baseline's own snapshot and every scheme embedding a hierarchy (Theorem 16)
// share this byte layout; only the section names differ.
func (h *Hierarchy) EncodeWireV2(lv, nr, tr, bu *wire.Encoder) {
	n := h.G.N()
	for i := 1; i < h.K; i++ { // A_0 = V is implicit
		lv.Uvarint(uint64(len(h.Levels[i])))
		prev := graph.Vertex(0)
		for _, v := range h.Levels[i] {
			lv.Uvarint(uint64(v - prev))
			prev = v
		}
	}
	for i := 0; i < h.K; i++ {
		nr.VertexArray(h.P[i])
		nr.FloatSeq(h.D[i])
	}
	treeroute.EncodeFlatForest(tr, h.Trees)
	offs := make([]uint32, n+1)
	total := 0
	for u := 0; u < n; u++ {
		offs[u] = uint32(total)
		total += len(h.bunch[u])
	}
	offs[n] = uint32(total)
	bunchW := make([]graph.Vertex, 0, total)
	bunchD := make([]float64, 0, total)
	for u := 0; u < n; u++ {
		bunchW = append(bunchW, h.bunch[u]...)
		bunchD = append(bunchD, h.bunchD[u]...)
	}
	bu.Uint32Array(offs)
	bu.VertexArray(bunchW)
	bu.Float64Array(bunchD)
}

// decodeSnapshotV2 rebuilds the baseline from the v2 layout. The cluster
// trees and the bunch transpose decode as aliases over the snapshot bytes;
// they are cross-checked against each other (every bunch entry names a tree
// that contains its vertex, and the totals match), so the arrays are exactly
// the transpose of the forest.
func decodeSnapshotV2(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
	k, err := wire.Decode(snap, secParams, func(d *wire.Decoder) (int, error) {
		return int(d.Uvarint()), nil
	})
	if err != nil {
		return nil, err
	}
	if k < 2 || k > 64 {
		return nil, fmt.Errorf("tzroute: snapshot k=%d outside [2,64]", k)
	}
	h, err := DecodeHierarchyV2(g, k, snap, secLevels, secNearest, secTrees, secBunches)
	if err != nil {
		return nil, err
	}
	return assemble(h), nil
}

// DecodeHierarchyV2 reads a hierarchy back from the four sections
// EncodeWireV2 wrote (looked up under the caller's names) and validates it
// against the graph: levels sorted and unique, nearest tables in range,
// cluster trees rooted correctly, and every bunch entry backed by the tree it
// names. k must already be validated by the caller (it lives in the caller's
// params section).
func DecodeHierarchyV2(g *graph.Graph, k int, snap *wire.Snapshot, secLv, secNr, secTr, secBu string) (*Hierarchy, error) {
	n := g.N()
	h := &Hierarchy{G: g, K: k, Levels: make([][]graph.Vertex, k), level: make([]int32, n)}
	all := make([]graph.Vertex, n)
	for i := range all {
		all[i] = graph.Vertex(i)
	}
	h.Levels[0] = all
	if _, err := wire.Decode(snap, secLv, func(lv *wire.Decoder) (*Hierarchy, error) {
		for i := 1; i < k; i++ {
			c := int(lv.Uvarint())
			if lv.Err() != nil {
				return nil, lv.Err()
			}
			if c < 1 || c > n {
				lv.Failf("level %d claims %d vertices (n=%d)", i, c, n)
				return nil, lv.Err()
			}
			if !lv.Alloc(4 * int64(c)) {
				return nil, lv.Err()
			}
			vs := make([]graph.Vertex, c)
			prev := graph.Vertex(0)
			for j := range vs {
				prev += graph.Vertex(lv.Uvarint())
				if prev < 0 || int(prev) >= n {
					lv.Failf("level %d has out-of-range vertex %d", i, prev)
					return nil, lv.Err()
				}
				if j > 0 && vs[j-1] >= prev {
					lv.Failf("level %d not sorted and unique at %d", i, prev)
					return nil, lv.Err()
				}
				vs[j] = prev
			}
			h.Levels[i] = vs
		}
		return h, nil
	}); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		for _, v := range h.Levels[i] {
			h.level[v] = int32(i)
		}
	}

	if _, err := wire.Decode(snap, secNr, func(nr *wire.Decoder) (*Hierarchy, error) {
		h.P = make([][]graph.Vertex, k)
		h.D = make([][]float64, k)
		if !nr.Alloc(8 * int64(k) * int64(n)) { // D tables; P aliases the snapshot
			return nil, nr.Err()
		}
		for i := 0; i < k; i++ {
			h.P[i] = nr.VertexArray()
			if nr.Err() != nil {
				return nil, nr.Err()
			}
			if len(h.P[i]) != n {
				return nil, fmt.Errorf("tzroute: snapshot nearest table of level %d has length %d, want %d", i, len(h.P[i]), n)
			}
			h.D[i] = make([]float64, n)
			nr.FloatSeq(h.D[i])
			if nr.Err() != nil {
				return nil, nr.Err()
			}
			for v := 0; v < n; v++ {
				if h.P[i][v] < 0 || int(h.P[i][v]) >= n {
					return nil, fmt.Errorf("tzroute: snapshot p_%d(%d)=%d out of range", i, v, h.P[i][v])
				}
				if math.IsNaN(h.D[i][v]) || h.D[i][v] < 0 {
					return nil, fmt.Errorf("tzroute: snapshot d(%d, A_%d)=%v invalid", v, i, h.D[i][v])
				}
			}
		}
		return h, nil
	}); err != nil {
		return nil, err
	}

	trees, err := wire.Decode(snap, secTr, func(d *wire.Decoder) ([]*treeroute.Tree, error) {
		return treeroute.DecodeFlatForest(d, g)
	})
	if err != nil {
		return nil, err
	}
	if len(trees) != n {
		return nil, fmt.Errorf("tzroute: snapshot forest has %d trees, want %d", len(trees), n)
	}
	totalMembers := 0
	for wi, tr := range trees {
		if tr == nil {
			return nil, fmt.Errorf("tzroute: snapshot cluster %d is empty (must contain its root)", wi)
		}
		if tr.Root() != graph.Vertex(wi) {
			return nil, fmt.Errorf("tzroute: snapshot cluster tree %d is rooted at %d", wi, tr.Root())
		}
		totalMembers += tr.Size()
	}
	h.Trees = trees

	return wire.Decode(snap, secBu, func(bd *wire.Decoder) (*Hierarchy, error) {
		offs := bd.Uint32Array()
		bunchW := bd.VertexArray()
		bunchD := bd.Float64Array()
		if bd.Err() != nil {
			return nil, bd.Err()
		}
		if len(offs) != n+1 {
			bd.Failf("bunch offsets hold %d entries, want %d", len(offs), n+1)
			return nil, bd.Err()
		}
		if n > 0 && offs[0] != 0 {
			bd.Failf("bunch offsets do not start at 0")
			return nil, bd.Err()
		}
		for u := 0; u < n; u++ {
			if offs[u+1] < offs[u] {
				bd.Failf("bunch offsets not monotone at %d", u)
				return nil, bd.Err()
			}
		}
		if len(bunchW) != totalMembers || len(bunchD) != totalMembers || (n > 0 && int(offs[n]) != totalMembers) {
			bd.Failf("bunch arrays hold %d/%d entries with end offset %d, forest has %d members",
				len(bunchW), len(bunchD), offs[len(offs)-1], totalMembers)
			return nil, bd.Err()
		}
		if !bd.Alloc(48 * int64(n)) { // per-vertex slice headers; data aliases the snapshot
			return nil, bd.Err()
		}
		h.bunch = make([][]graph.Vertex, n)
		h.bunchD = make([][]float64, n)
		if err := parallel.ForErr(n, func(u int) error {
			lo, hi := int(offs[u]), int(offs[u+1])
			b := bunchW[lo:hi:hi]
			ds := bunchD[lo:hi:hi]
			for i, w := range b {
				if w < 0 || int(w) >= n {
					return fmt.Errorf("tzroute: snapshot bunch of %d has out-of-range root %d", u, w)
				}
				if i > 0 && b[i-1] >= w {
					return fmt.Errorf("tzroute: snapshot bunch of %d not sorted and unique at %d", u, w)
				}
				// Every bunch entry must be backed by the tree it names: the
				// routing step descends Trees[w] whenever InBunch(u, w) holds.
				// Combined with the total-count match this makes the aliased
				// arrays exactly the transpose of the forest.
				if !trees[w].Contains(graph.Vertex(u)) {
					return fmt.Errorf("tzroute: snapshot bunch of %d names root %d whose tree does not contain it", u, w)
				}
				if math.IsNaN(ds[i]) || ds[i] < 0 {
					return fmt.Errorf("tzroute: snapshot bunch of %d has invalid distance %v at root %d", u, ds[i], w)
				}
			}
			h.bunch[u] = b
			h.bunchD[u] = ds
			return nil
		}); err != nil {
			return nil, err
		}
		return h, nil
	})
}
