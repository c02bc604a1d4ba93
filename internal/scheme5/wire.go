package scheme5

import (
	"fmt"

	"compactroute/internal/cluster"
	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/treeroute"
	"compactroute/internal/vicinity"
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
	vicinity.EncodeSetsV2(snap.AlignedSection(secVicinities), s.vc.Vics)
	s.vc.Col.EncodeWireV2(snap.Section(secColoring))
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
	pd, err := snap.Decoder(secParams)
	if err != nil {
		return nil, err
	}
	eps := pd.Float64()
	q := int(pd.Uvarint())
	l := int(pd.Uvarint())
	if err := pd.Finish(); err != nil {
		return nil, err
	}
	if q < 1 || q > n {
		return nil, fmt.Errorf("scheme5: snapshot q=%d outside [1,%d]", q, n)
	}

	vd, err := snap.Decoder(secVicinities)
	if err != nil {
		return nil, err
	}
	vics, err := vicinity.DecodeSetsV2(vd, n)
	if err != nil {
		return nil, err
	}
	if err := vd.Finish(); err != nil {
		return nil, err
	}

	cd, err := snap.Decoder(secColoring)
	if err != nil {
		return nil, err
	}
	col, err := coloring.DecodeWireV2(cd, n)
	if err != nil {
		return nil, err
	}
	if err := cd.Finish(); err != nil {
		return nil, err
	}
	vc, err := schemeutil.RestoreVicinityColoring(q, l, vics, col)
	if err != nil {
		return nil, err
	}

	ld, err := snap.Decoder(secLandmarks)
	if err != nil {
		return nil, err
	}
	lms, err := cluster.DecodeWireV2(ld, n)
	if err != nil {
		return nil, err
	}
	if err := ld.Finish(); err != nil {
		return nil, err
	}

	fd, err := snap.Decoder(secForest)
	if err != nil {
		return nil, err
	}
	trees, err := treeroute.DecodeFlatForest(fd, g)
	if err != nil {
		return nil, err
	}
	if err := fd.Finish(); err != nil {
		return nil, err
	}
	fores, err := schemeutil.RestoreClusterForest(lms, trees, n)
	if err != nil {
		return nil, err
	}

	wParts, alphaOf := landmarkParts(lms.A, q)
	id, err := snap.Decoder(secInter)
	if err != nil {
		return nil, err
	}
	inter, err := core.RestoreInterV2(core.InterConfig{
		Graph: g, Vics: vc.Vics, UPartOf: vc.PartOf, Reps: vc.Reps, WParts: wParts, Eps: eps,
	}, id)
	if err != nil {
		return nil, err
	}
	if err := id.Finish(); err != nil {
		return nil, err
	}

	lbd, err := snap.Decoder(secLabels)
	if err != nil {
		return nil, err
	}
	ports := lbd.PortArray()
	if lbd.Err() != nil {
		return nil, lbd.Err()
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
	if err := lbd.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
