package cluster

import (
	"fmt"
	"math"

	"compactroute/internal/graph"
	"compactroute/internal/wire"
)

// EncodeWireV2 writes the landmark structure in the compressed v2 layout:
// the set A as uvarint deltas (it is sorted and unique), the
// nearest-landmark table p_A as uvarint indexes into A, d(.,A) as a
// FloatSeq, and the cluster members as uvarint ids with their distances in
// one shared FloatSeq and each parent as the uvarint member-index + 1 of
// the member it equals (0 marks the cluster root) - parents are discovered
// before their children in search order, so the index exists, compresses
// short and validates membership for free.
func (l *Landmarks) EncodeWireV2(e *wire.Encoder) error {
	e.Uvarint(uint64(len(l.A)))
	prev := graph.Vertex(0)
	aIdx := make(map[graph.Vertex]int, len(l.A))
	for i, v := range l.A {
		e.Uvarint(uint64(v - prev))
		prev = v
		aIdx[v] = i
	}
	for _, p := range l.P {
		i, ok := aIdx[p]
		if !ok {
			return fmt.Errorf("cluster: encode: p_A value %d is not a landmark", p)
		}
		e.Uvarint(uint64(i))
	}
	e.FloatSeq(l.DistA)
	total := 0
	for _, ms := range l.clusters {
		e.Uvarint(uint64(len(ms)))
		total += len(ms)
	}
	dists := make([]float64, 0, total)
	pos := make(map[graph.Vertex]int)
	for w, ms := range l.clusters {
		clear(pos)
		for i, m := range ms {
			e.Uvarint(uint64(m.V))
			pos[m.V] = i
			dists = append(dists, m.Dist)
		}
		for _, m := range ms {
			if m.Parent == graph.NoVertex {
				e.Uvarint(0)
				continue
			}
			i, ok := pos[m.Parent]
			if !ok {
				return fmt.Errorf("cluster: encode: parent %d of %d in C_A(%d) is not a cluster member", m.Parent, m.V, w)
			}
			e.Uvarint(uint64(i) + 1)
		}
	}
	e.FloatSeq(dists)
	return nil
}

// DecodeWireV2 reads a landmark structure written by EncodeWireV2.
func DecodeWireV2(d *wire.Decoder, n int) (*Landmarks, error) {
	na := int(d.Uvarint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if na < 1 || na > n {
		d.Failf("landmark set of %d for n=%d", na, n)
		return nil, d.Err()
	}
	if !d.Alloc(int64(na)*4 + int64(n)*32) {
		return nil, d.Err()
	}
	a := make([]graph.Vertex, na)
	prev := graph.Vertex(0)
	for i := range a {
		prev += graph.Vertex(d.Uvarint())
		if prev < 0 || int(prev) >= n {
			d.Failf("landmark %d out of range", prev)
			return nil, d.Err()
		}
		a[i] = prev // Restore re-checks sorted-and-unique
	}
	p := make([]graph.Vertex, n)
	for v := range p {
		i := d.Uvarint()
		if i >= uint64(na) {
			d.Failf("p_A(%d) index %d outside the landmark set", v, i)
			return nil, d.Err()
		}
		p[v] = a[i]
	}
	distA := make([]float64, n)
	d.FloatSeq(distA)
	counts := make([]int, n)
	total := 0
	for w := range counts {
		c := int(d.Uvarint())
		if c < 0 || c > n {
			d.Failf("C_A(%d) claims %d members (n=%d)", w, c, n)
			return nil, d.Err()
		}
		counts[w] = c
		total += c
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !d.Alloc(int64(total) * 40) { // member slab + bunch entries
		return nil, d.Err()
	}
	slab := make([]Member, total)
	clusters := make([][]Member, n)
	off := 0
	for w := range clusters {
		ms := slab[off : off+counts[w] : off+counts[w]]
		off += counts[w]
		for i := range ms {
			v := d.Uvarint()
			if v >= uint64(n) {
				d.Failf("member %d of C_A(%d) out of range", v, w)
				return nil, d.Err()
			}
			ms[i].V = graph.Vertex(v)
		}
		for i := range ms {
			pi := d.Uvarint()
			if pi == 0 {
				ms[i].Parent = graph.NoVertex
				continue
			}
			if pi > uint64(len(ms)) {
				d.Failf("parent index %d of member %d in C_A(%d) out of range", pi, i, w)
				return nil, d.Err()
			}
			ms[i].Parent = ms[pi-1].V
		}
		clusters[w] = ms
	}
	dists := make([]float64, total)
	d.FloatSeq(dists)
	if d.Err() != nil {
		return nil, d.Err()
	}
	for i := range slab {
		slab[i].Dist = dists[i]
	}
	l, err := Restore(n, a, p, distA, clusters)
	if err != nil {
		d.Failf("%v", err)
		return nil, d.Err()
	}
	return l, nil
}

// Restore rebuilds a Landmarks from its serialized parts, re-deriving the
// membership flags and the bunch transpose exactly as New does.
func Restore(n int, a, p []graph.Vertex, distA []float64, clusters [][]Member) (*Landmarks, error) {
	if len(a) == 0 {
		return nil, fmt.Errorf("cluster: restore: empty landmark set")
	}
	if len(p) != n || len(distA) != n || len(clusters) != n {
		return nil, fmt.Errorf("cluster: restore: table lengths %d/%d/%d, want n=%d",
			len(p), len(distA), len(clusters), n)
	}
	l := &Landmarks{
		A:        a,
		inA:      make([]bool, n),
		P:        p,
		DistA:    distA,
		clusters: clusters,
	}
	for i, v := range a {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("cluster: restore: landmark %d out of range", v)
		}
		if i > 0 && a[i-1] >= v {
			return nil, fmt.Errorf("cluster: restore: landmark set not sorted and unique at %d", v)
		}
		l.inA[v] = true
	}
	for v := 0; v < n; v++ {
		if p[v] < 0 || int(p[v]) >= n || !l.inA[p[v]] {
			return nil, fmt.Errorf("cluster: restore: p_A(%d)=%d is not a landmark", v, p[v])
		}
		if math.IsNaN(distA[v]) || distA[v] < 0 {
			return nil, fmt.Errorf("cluster: restore: d(%d, A)=%v invalid", v, distA[v])
		}
	}
	for w, ms := range clusters {
		for _, m := range ms {
			if m.V < 0 || int(m.V) >= n {
				return nil, fmt.Errorf("cluster: restore: member %d of C_A(%d) out of range", m.V, w)
			}
			if m.Parent != graph.NoVertex && (m.Parent < 0 || int(m.Parent) >= n) {
				return nil, fmt.Errorf("cluster: restore: parent %d in C_A(%d) out of range", m.Parent, w)
			}
		}
	}
	l.bunches = transposeBunches(clusters)
	return l, nil
}
