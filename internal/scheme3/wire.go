package scheme3

import (
	"fmt"

	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/vicinity"
	"compactroute/internal/wire"
)

// WireKindNameV2 is the registered snapshot kind of the warm-up (3+eps)
// scheme, with varint/delta-compressed sections.
const WireKindNameV2 = "scheme3/v2"

func init() { wire.Register(WireKindNameV2, decodeSnapshotV2) }

// Section names of the warm-up snapshot.
const (
	secParams     = "scheme3/params"
	secVicinities = "scheme3/vicinities"
	secColoring   = "scheme3/coloring"
	secIntra      = "scheme3/intra"
)

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindNameV2 }

// EncodeSnapshot implements wire.Encodable, writing the v2 layout. Only
// state that cannot be re-derived deterministically is written: the
// vicinities as aligned fixed-width arrays that alias the mapped file, and
// the rainbow coloring and the Lemma 7 waypoint sequences,
// varint/delta-compressed. The representatives, labels and storage tally
// are pure functions of those and are rebuilt on decode.
func (s *Scheme) EncodeSnapshot(snap *wire.Snapshot) error {
	p := snap.Section(secParams)
	p.Float64(s.eps)
	p.Uvarint(uint64(s.vc.Q))
	p.Uvarint(uint64(s.vc.L))
	vicinity.EncodeSetsV2(snap.AlignedSection(secVicinities), s.vc.Vics)
	s.vc.Col.EncodeWireV2(snap.Section(secColoring))
	s.intra.EncodeIntraWireV2(snap.Section(secIntra))
	return nil
}

// decodeSnapshotV2 rebuilds a warm-up scheme over the decoded graph. The
// result is behaviorally identical to the encoded scheme: identical routing
// decisions, labels, headers and table words. Unlike Theorem 10, the warm-up
// scheme applies to weighted graphs, so no unit-weight check is made.
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
		return nil, fmt.Errorf("scheme3: snapshot q=%d outside [1,%d]", q, n)
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

	s := &Scheme{g: g, eps: eps, vc: vc, intra: intra}
	s.tally = space.NewTally(n)
	vc.AddWords(s.tally)
	intra.AddTableWords(s.tally)
	return s, nil
}
