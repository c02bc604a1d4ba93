package scheme2

import (
	"fmt"

	"compactroute/internal/cluster"
	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/vicinity"
	"compactroute/internal/wire"
)

// WireKindNameV2 is the registered snapshot kind of the Theorem 10 scheme,
// with varint/delta-compressed sections.
const WireKindNameV2 = "thm10/v2"

func init() { wire.Register(WireKindNameV2, decodeSnapshotV2) }

// Section names of the Theorem 10 snapshot.
const (
	secParams     = "thm10/params"
	secVicinities = "thm10/vicinities"
	secColoring   = "thm10/coloring"
	secLandmarks  = "thm10/landmarks"
	secIntra      = "thm10/intra"
)

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindNameV2 }

// EncodeSnapshot implements wire.Encodable, writing the v2 layout. Only
// state that cannot be re-derived deterministically is written: the
// vicinities as aligned fixed-width arrays that alias the mapped file, and
// the coloring, the landmark structure and the Lemma 7 waypoint sequences,
// varint/delta-compressed. The cluster forest, the global landmark trees,
// the bunch-intersection hash tables, the labels and the storage tally are
// pure functions of those and are rebuilt on decode (see assemble).
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
	s.intra.EncodeIntraWireV2(snap.Section(secIntra))
	return nil
}

// decodeSnapshotV2 rebuilds a Theorem 10 scheme over the decoded graph.
// The result is behaviorally identical to the encoded scheme: identical
// routing decisions, labels, headers and table words.
func decodeSnapshotV2(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
	n := g.N()
	if !g.Unit() {
		return nil, fmt.Errorf("scheme2: snapshot graph is weighted; Theorem 10 applies to unweighted graphs")
	}
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
		return nil, fmt.Errorf("scheme2: snapshot q=%d outside [1,%d]", q, n)
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

	id, err := snap.Decoder(secIntra)
	if err != nil {
		return nil, err
	}
	intra, err := core.RestoreIntraV2(core.IntraConfig{
		Graph: g, Vics: vc.Vics, PartOf: vc.PartOf, Eps: eps,
	}, id)
	if err != nil {
		return nil, err
	}
	if err := id.Finish(); err != nil {
		return nil, err
	}
	return assemble(g, eps, vc, lms, intra)
}
