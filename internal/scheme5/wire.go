package scheme5

import (
	"fmt"

	"compactroute/internal/cluster"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/treeroute"
	"compactroute/internal/wire"
)

// WireKindNameV2 is the registered snapshot kind of the Theorem 11 scheme:
// compressed decode-only sections plus an aligned flat cluster forest and
// label ports that alias the snapshot bytes.
const WireKindNameV2 = "thm11/v2"

func init() { wire.Register(WireKindNameV2, decodeSnapshotV2) }

// Section names of the Theorem 11 snapshot.
const (
	secParams     = "thm11/params"
	secVicinities = "thm11/vicinities"
	secColoring   = "thm11/coloring"
	secLandmarks  = "thm11/landmarks"
	secForest     = "thm11/forest"
	secInter      = "thm11/inter"
	secLabels     = "thm11/labels"
)

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindNameV2 }

// EncodeSnapshot implements wire.Encodable, writing the v2 layout. Small
// decode-time-only sections (coloring, landmarks) are varint/delta
// compressed; the bulk tables - vicinities, cluster forest, Lemma 8
// sequences and per-label first-edge ports - are aligned fixed-width
// sections that decode as zero-copy aliases over the mapped file.
func (s *Scheme) EncodeSnapshot(snap *wire.Snapshot) error {
	p := snap.Section(secParams)
	p.Float64(s.eps)
	p.Uvarint(uint64(s.vc.Q))
	p.Uvarint(uint64(s.vc.L))
	s.vc.EncodeSections(snap, secVicinities, secColoring)
	if err := s.lms.EncodeWireV2(snap.Section(secLandmarks)); err != nil {
		return err
	}
	treeroute.EncodeFlatForest(snap.AlignedSection(secForest), s.fores.Trees)
	s.inter.EncodeWireV2(snap.AlignedSection(secInter))
	ports := make([]graph.Port, len(s.labels))
	for v := range s.labels {
		ports[v] = s.labels[v].paPort
	}
	snap.AlignedSection(secLabels).PortArray(ports)
	return nil
}

// decodeSnapshotV2 rebuilds a Theorem 11 scheme over the decoded graph; the
// result is behaviorally identical to the encoded scheme. The cluster forest
// is not rebuilt from parent links: the flat trees decode as aliases over the
// snapshot bytes and are cross-checked against the decoded landmark structure
// (same roots, sizes and membership).
func decodeSnapshotV2(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
	n := g.N()
	var eps float64
	var q, l int
	if _, err := wire.Decode(snap, secParams, func(d *wire.Decoder) (struct{}, error) {
		eps, q, l = d.Float64(), int(d.Uvarint()), int(d.Uvarint())
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	vc, err := schemeutil.DecodeVicinityColoring(snap, secVicinities, secColoring, q, l, n)
	if err != nil {
		return nil, err
	}
	lms, err := wire.Decode(snap, secLandmarks, func(d *wire.Decoder) (*cluster.Landmarks, error) {
		return cluster.DecodeWireV2(d, n)
	})
	if err != nil {
		return nil, err
	}
	trees, err := wire.Decode(snap, secForest, func(d *wire.Decoder) ([]*treeroute.Tree, error) {
		return treeroute.DecodeFlatForest(d, g)
	})
	if err != nil {
		return nil, err
	}
	fores, err := schemeutil.RestoreClusterForest(lms, trees, n)
	if err != nil {
		return nil, err
	}
	wParts, alphaOf := landmarkParts(lms.A, q)
	inter, err := wire.Decode(snap, secInter, func(d *wire.Decoder) (*core.Inter, error) {
		return core.RestoreInterV2(core.InterConfig{
			Graph: g, Vics: vc.Vics, UPartOf: vc.PartOf, Reps: vc.Reps, WParts: wParts, Eps: eps,
		}, d)
	})
	if err != nil {
		return nil, err
	}
	return wire.Decode(snap, secLabels, func(d *wire.Decoder) (simnet.Scheme, error) {
		ports := d.PortArray()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if len(ports) != n {
			return nil, fmt.Errorf("scheme5: snapshot has %d label ports, want %d", len(ports), n)
		}
		s := &Scheme{g: g, eps: eps, vc: vc, lms: lms, fores: fores, inter: inter,
			labels: make([]label, n)}
		for v := 0; v < n; v++ {
			pa := lms.P[v]
			port := ports[v]
			if pa == graph.Vertex(v) {
				if port != graph.NoPort {
					return nil, fmt.Errorf("scheme5: snapshot label of %d has a first edge at its own landmark", v)
				}
			} else if port < 0 || int(port) >= g.Degree(pa) {
				return nil, fmt.Errorf("scheme5: snapshot label of %d has invalid port %d at landmark %d", v, port, pa)
			}
			s.labels[v] = label{pa: pa, alpha: alphaOf[pa], paPort: port}
		}
		return s, nil
	})
}
