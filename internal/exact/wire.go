package exact

import (
	"compactroute/internal/graph"
	"compactroute/internal/simnet"
	"compactroute/internal/wire"
)

// WireKindNameV2 is the v2 layout: the port matrix as one aligned
// fixed-width array whose rows alias the snapshot bytes on decode.
const WireKindNameV2 = "exact/v2"

func init() {
	wire.Register(WireKindNameV2, decodeSnapshotV2)
}

const secPorts = "exact/ports"

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindNameV2 }

// EncodeSnapshot implements wire.Encodable: the full n x n first-hop port
// matrix as one aligned array, row-major. The matrix is the entire serve
// state of the baseline, so a decoded scheme serves straight off the mapped
// file - nothing is copied to the heap.
func (s *Scheme) EncodeSnapshot(snap *wire.Snapshot) error {
	e := snap.AlignedSection(secPorts)
	n := len(s.ports)
	e.ArrayHeader(4, 4, n*n)
	for _, row := range s.ports {
		for _, p := range row {
			e.Port(p)
		}
	}
	return nil
}

// decodeSnapshotV2 reads the v2 port matrix. On a little-endian host the
// rows are subslices of one array aliasing the snapshot bytes; every port is
// still validated against its row vertex's degree before the scheme serves.
func decodeSnapshotV2(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
	return wire.Decode(snap, secPorts, func(d *wire.Decoder) (simnet.Scheme, error) {
		n := g.N()
		all := d.PortArray()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if len(all) != n*n {
			d.Failf("port matrix holds %d entries, want %d x %d", len(all), n, n)
			return nil, d.Err()
		}
		if !d.Alloc(24 * int64(n)) { // row headers only; rows alias the snapshot
			return nil, d.Err()
		}
		s := &Scheme{g: g, ports: make([][]graph.Port, n)}
		for u := 0; u < n; u++ {
			row := all[u*n : (u+1)*n : (u+1)*n]
			deg := graph.Port(g.Degree(graph.Vertex(u)))
			for v, p := range row {
				if p != graph.NoPort && (p < 0 || p >= deg) {
					d.Failf("port[%d][%d]=%d outside degree %d", u, v, p, deg)
					return nil, d.Err()
				}
			}
			s.ports[u] = row
		}
		return s, nil
	})
}
