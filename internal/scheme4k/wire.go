package scheme4k

import (
	"fmt"

	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/tzroute"
	"compactroute/internal/wire"
)

// WireKindNameV2 is the registered snapshot kind of the Theorem 16 scheme.
// The embedded Thorup-Zwick hierarchy reuses the tzroute/v2 section bytes
// under thm16/* names, and the vicinity, coloring and Lemma 8 sections
// follow the Theorem 11 layout. Labels and the W partition are pure
// functions of the decoded hierarchy, so the snapshot stores neither.
const WireKindNameV2 = "scheme4k/v2"

func init() {
	wire.Register(WireKindNameV2, decodeSnapshotV2)
}

// Section names of the Theorem 16 snapshot.
const (
	secParams     = "thm16/params"
	secLevels     = "thm16/levels"
	secNearest    = "thm16/nearest"
	secTrees      = "thm16/trees"
	secBunches    = "thm16/bunches"
	secVicinities = "thm16/vicinities"
	secColoring   = "thm16/coloring"
	secInter      = "thm16/inter"
)

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindNameV2 }

// EncodeSnapshot implements wire.Encodable. Small decode-time-only sections
// (params, levels, coloring) are varint compressed; the bulk tables - the
// nearest tables, cluster trees and bunch transpose of the hierarchy, the
// vicinities and the Lemma 8 sequences - are aligned fixed-width sections
// that decode as zero-copy aliases over a mapped file.
func (s *Scheme) EncodeSnapshot(snap *wire.Snapshot) error {
	p := snap.Section(secParams)
	p.Uvarint(uint64(s.k))
	p.Float64(s.eps)
	p.Uvarint(uint64(s.vc.Q))
	p.Uvarint(uint64(s.vc.L))
	s.h.EncodeWireV2(snap.Section(secLevels), snap.AlignedSection(secNearest),
		snap.AlignedSection(secTrees), snap.AlignedSection(secBunches))
	s.vc.EncodeSections(snap, secVicinities, secColoring)
	s.inter.EncodeWireV2(snap.AlignedSection(secInter))
	return nil
}

// decodeSnapshotV2 rebuilds a Theorem 16 scheme over the decoded graph. The
// result is behaviorally identical to the encoded scheme: the hierarchy
// decodes through the shared tzroute validator, the W partition and the
// per-vertex labels are re-derived from it, and every derived lookup that a
// corrupt snapshot could break (a p_{k-2} outside A_{k-2}) fails with an
// error instead of indexing garbage.
func decodeSnapshotV2(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
	var eps float64
	var k, q, l int
	if _, err := wire.Decode(snap, secParams, func(d *wire.Decoder) (struct{}, error) {
		k, eps, q, l = int(d.Uvarint()), d.Float64(), int(d.Uvarint()), int(d.Uvarint())
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	if k < 3 || k > 64 {
		return nil, fmt.Errorf("scheme4k: snapshot k=%d outside [3,64]", k)
	}
	h, err := tzroute.DecodeHierarchyV2(g, k, snap, secLevels, secNearest, secTrees, secBunches)
	if err != nil {
		return nil, err
	}
	vc, err := schemeutil.DecodeVicinityColoring(snap, secVicinities, secColoring, q, l, g.N())
	if err != nil {
		return nil, err
	}
	wParts, alphaOf := landmarkParts(h.Levels[k-2], q)
	inter, err := wire.Decode(snap, secInter, func(d *wire.Decoder) (*core.Inter, error) {
		return core.RestoreInterV2(core.InterConfig{
			Graph: g, Vics: vc.Vics, UPartOf: vc.PartOf, Reps: vc.Reps, WParts: wParts, Eps: eps,
		}, d)
	})
	if err != nil {
		return nil, err
	}
	return assemble(g, k, eps, h, vc, inter, alphaOf)
}
