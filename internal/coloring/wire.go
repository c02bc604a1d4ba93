package coloring

import (
	"fmt"

	"compactroute/internal/graph"
	"compactroute/internal/wire"
)

// Restore rebuilds a Coloring from its per-vertex color array. The classes
// are re-derived; property (1) is not re-verified here - a snapshot stores
// the colors of an already-verified coloring, and the scheme decoders that
// consume the result (representative derivation in schemeutil) fail cleanly
// if a color is missing from a vicinity.
func Restore(n, q int, colors []Color) (*Coloring, error) {
	if q < 1 {
		return nil, fmt.Errorf("coloring: restore: need q >= 1, got %d", q)
	}
	if len(colors) != n {
		return nil, fmt.Errorf("coloring: restore: %d colors for %d vertices", len(colors), n)
	}
	c := &Coloring{q: q, colors: colors, classes: make([][]graph.Vertex, q)}
	for v, cv := range colors {
		if cv < 0 || int(cv) >= q {
			return nil, fmt.Errorf("coloring: restore: vertex %d has color %d outside [0,%d)", v, cv, q)
		}
		c.classes[cv] = append(c.classes[cv], graph.Vertex(v))
	}
	return c, nil
}

// EncodeWireV2 writes the coloring compressed: q, the vertex count and the
// per-vertex colors as uvarints - q is small (about n^(1/k)), so a color is
// one byte instead of four.
func (c *Coloring) EncodeWireV2(e *wire.Encoder) {
	e.Uvarint(uint64(c.q))
	e.Uvarint(uint64(len(c.colors)))
	for _, cv := range c.colors {
		e.Uvarint(uint64(cv))
	}
}

// DecodeWireV2 reads a coloring written by EncodeWireV2 for n vertices.
func DecodeWireV2(d *wire.Decoder, n int) (*Coloring, error) {
	q := int(d.Uvarint())
	c := int(d.Uvarint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if c < 0 || c > d.Remaining() || q < 0 || q > n+1 {
		d.Failf("coloring claims %d colors over %d vertices with %d bytes remaining", q, c, d.Remaining())
		return nil, d.Err()
	}
	if !d.Alloc(int64(c)*4 + int64(q)*24) {
		return nil, d.Err()
	}
	colors := make([]Color, c)
	for i := range colors {
		colors[i] = Color(d.Uvarint())
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	col, err := Restore(n, q, colors)
	if err != nil {
		d.Failf("%v", err)
		return nil, d.Err()
	}
	return col, nil
}
