package scheme3

import (
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
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
// are pure functions of those and are rebuilt on decode (see assemble).
func (s *Scheme) EncodeSnapshot(snap *wire.Snapshot) error {
	p := snap.Section(secParams)
	p.Float64(s.eps)
	p.Uvarint(uint64(s.vc.Q))
	p.Uvarint(uint64(s.vc.L))
	s.vc.EncodeSections(snap, secVicinities, secColoring)
	s.intra.EncodeIntraWireV2(snap.Section(secIntra))
	return nil
}

// decodeSnapshotV2 rebuilds a warm-up scheme over the decoded graph. The
// result is behaviorally identical to the encoded scheme: identical routing
// decisions, labels, headers and table words. Unlike Theorem 10, the warm-up
// scheme applies to weighted graphs, so no unit-weight check is made.
func decodeSnapshotV2(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
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
