package nameind

import (
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
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
	s.vc.EncodeSections(snap, secVicinities, secColoring)
	s.intra.EncodeIntraWireV2(snap.Section(secIntra))
	return nil
}

// decodeSnapshot rebuilds a name-independent scheme over the decoded graph,
// behaviorally identical to the encoded one: identical routing decisions,
// headers and table words.
func decodeSnapshot(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
	var eps float64
	var q, l int
	if _, err := wire.Decode(snap, secParams, func(d *wire.Decoder) (struct{}, error) {
		eps, q, l = d.Float64(), int(d.Uvarint()), int(d.Uvarint())
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	vc, err := schemeutil.DecodeVicinityColoring(snap, secVicinities, secColoring, q, l, g.N())
	if err != nil {
		return nil, err
	}
	intra, err := wire.Decode(snap, secIntra, func(d *wire.Decoder) (*core.Intra, error) {
		return core.RestoreIntraV2(core.IntraConfig{
			Graph: g, Vics: vc.Vics, PartOf: vc.PartOf, Eps: eps,
		}, d)
	})
	if err != nil {
		return nil, err
	}
	return assemble(g, eps, vc, intra), nil
}
