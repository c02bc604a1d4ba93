package wire

import (
	"fmt"
	"math"

	"compactroute/internal/graph"
)

// GraphSection is the section every snapshot stores its graph under.
const GraphSection = "graph"

// EncodeGraph writes g into the snapshot's graph section. The graph is cold
// at serve time (decoded once into the CSR arrays), so the v2 payload is
// delta/varint compressed: vertex and edge counts, then per undirected edge
// in canonical order (by u, then by v, u < v) the delta of u from the
// previous edge's u and the delta of v from the previous v of the same u
// (or from u itself for the first), then all weights as one FloatSeq -
// one or two bytes per weight on the integer-weighted generators instead
// of eight.
func EncodeGraph(s *Snapshot, g *graph.Graph) {
	e := s.Section(GraphSection)
	n := g.N()
	m := g.M()
	e.Uvarint(uint64(n))
	e.Uvarint(uint64(m))
	ws := make([]float64, 0, m)
	prevU := graph.Vertex(0)
	prevV := graph.Vertex(0)
	for u := 0; u < n; u++ {
		g.Neighbors(graph.Vertex(u), func(_ graph.Port, v graph.Vertex, w float64) bool {
			if graph.Vertex(u) < v {
				du := graph.Vertex(u) - prevU
				e.Uvarint(uint64(du))
				if du > 0 {
					prevV = graph.Vertex(u)
				}
				e.Uvarint(uint64(v - prevV)) // v > u and v ascending within u
				prevU, prevV = graph.Vertex(u), v
				ws = append(ws, w)
			}
			return true
		})
	}
	e.FloatSeq(ws)
}

// DecodeGraph rebuilds the graph from the snapshot's graph section. The
// CSR layout produced by Builder.Build is a pure function of the edge set,
// so the decoded graph is bit-identical to the encoded one (and the caller
// can verify that via graph.Fingerprint against the snapshot header).
func DecodeGraph(s *Snapshot) (*graph.Graph, error) {
	b, err := Decode(s, GraphSection, func(d *Decoder) (*graph.Builder, error) {
		n := int(d.Uvarint())
		m := int(d.Uvarint())
		if err := d.Err(); err != nil {
			return nil, err
		}
		if n < 0 || n > math.MaxInt32 || m < 0 || int64(m)*2 > int64(d.Remaining()) {
			d.Failf("vertex count %d / edge count %d exceed remaining %d bytes", n, m, d.Remaining())
			return nil, d.Err()
		}
		// The builder and the CSR arrays cost ~24 bytes per vertex and ~56 bytes
		// per edge; charge them (plus the decoded weight slice) before allocating.
		if !d.Alloc(24*int64(n) + 64*int64(m)) {
			return nil, d.Err()
		}
		us := make([]graph.Vertex, m)
		vs := make([]graph.Vertex, m)
		prevU, prevV := graph.Vertex(0), graph.Vertex(0)
		for i := 0; i < m; i++ {
			du := d.Uvarint()
			if du > 0 {
				prevU += graph.Vertex(du)
				prevV = prevU
			}
			prevV += graph.Vertex(d.Uvarint())
			if d.Err() != nil {
				return nil, d.Err()
			}
			if int(prevU) >= n || int(prevV) >= n || prevU >= prevV {
				d.Failf("edge %d {%d,%d} out of canonical order for n=%d", i, prevU, prevV, n)
				return nil, d.Err()
			}
			us[i], vs[i] = prevU, prevV
		}
		ws := make([]float64, m)
		d.FloatSeq(ws)
		if d.Err() != nil {
			return nil, d.Err()
		}
		b := graph.NewBuilder(n)
		b.Grow(m)
		for i := 0; i < m; i++ {
			w := ws[i]
			if !(w > 0) || math.IsInf(w, 1) {
				d.Failf("edge {%d,%d} has invalid weight %v", us[i], vs[i], w)
				return nil, d.Err()
			}
			b.AddEdge(us[i], vs[i], w)
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("wire: section %q: %w", GraphSection, err)
	}
	return g, nil
}
