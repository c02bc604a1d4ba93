package scheme2

import (
	"fmt"

	"compactroute/internal/cluster"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
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
	s.vc.EncodeSections(snap, secVicinities, secColoring)
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
	intra, err := wire.Decode(snap, secIntra, func(d *wire.Decoder) (*core.Intra, error) {
		return core.RestoreIntraV2(core.IntraConfig{
			Graph: g, Vics: vc.Vics, PartOf: vc.PartOf, Eps: eps,
		}, d)
	})
	if err != nil {
		return nil, err
	}
	return assemble(g, eps, vc, lms, intra)
}
