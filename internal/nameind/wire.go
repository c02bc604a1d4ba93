package nameind

import (
	"fmt"

	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/vicinity"
	"compactroute/internal/wire"
)

// WireKindName is the registered snapshot kind of the name-independent
// scheme.
const WireKindName = "nameind/v2"

func init() {
	wire.Register(WireKindName, decodeSnapshot)
}

// Section names of the name-independent snapshot.
const (
	secParams     = "nameind/params"
	secVicinities = "nameind/vicinities"
	secColoring   = "nameind/coloring"
	secIntra      = "nameind/intra"
)

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindName }

// EncodeSnapshot implements wire.Encodable. Only state that cannot be
// re-derived deterministically is written: eps, the coloring geometry (q, l),
// the vicinities as aligned fixed-width arrays that alias the mapped file,
// and the compressed coloring and intra-part structures. The name
// dictionaries hang off the public hash and the coloring, so the decoder
// recomputes them (see assemble); writing them would only inflate the
// snapshot with redundant maps.
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

// decodeSnapshot rebuilds a name-independent scheme over the decoded graph,
// behaviorally identical to the encoded one: identical routing decisions,
// headers and table words.
func decodeSnapshot(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
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
		return nil, fmt.Errorf("nameind: snapshot q=%d outside [1,%d]", q, n)
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
	return assemble(g, eps, vc, intra), nil
}
