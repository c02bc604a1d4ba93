package schemegl

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

// WireKindName is the registered snapshot kind of the generalized Section 5
// schemes (Theorems 13 and 15).
const WireKindName = "schemegl/v2"

func init() { wire.Register(WireKindName, decodeSnapshot) }

// Section names of the generalized snapshot. The per-level forest sections
// are numbered gl/forest0..gl/forest<l>, one aligned section per landmark
// level so each decodes as zero-copy aliases over the snapshot bytes.
const (
	glParams     = "gl/params"
	glLandmarks  = "gl/landmarks"
	glVicinities = "gl/vicinities"
	glInter      = "gl/inter"
	glLabels     = "gl/labels"
)

func glForestSec(i int) string { return fmt.Sprintf("gl/forest%d", i) }

// WireKind implements wire.Encodable.
func (s *Scheme) WireKind() string { return WireKindName }

// EncodeSnapshot implements wire.Encodable. Only state that cannot be
// re-derived deterministically is written: the per-level landmark
// structures, cluster trees, vicinities and colorings, the Lemma 8
// sequences, and the per-label first-edge ports. q, the partitions W^j, the
// intersection hash tables, the labels' landmark halves and the storage
// tally are pure functions of those and are rebuilt on decode.
func (s *Scheme) EncodeSnapshot(snap *wire.Snapshot) error {
	l := s.params.L
	p := snap.Section(glParams)
	p.Uvarint(uint64(l))
	p.Uvarint(uint64(s.params.Variant))
	p.Float64(s.params.Eps)
	p.Float64(s.params.VicinityFactor)

	lm := snap.Section(glLandmarks)
	for i := 0; i <= l; i++ {
		if err := s.lms[i].EncodeWireV2(lm); err != nil {
			return fmt.Errorf("schemegl: encode level %d landmarks: %w", i, err)
		}
	}
	for i := 0; i <= l; i++ {
		treeroute.EncodeFlatForest(snap.AlignedSection(glForestSec(i)), s.fores[i].Trees)
	}

	vs := snap.AlignedSection(glVicinities)
	for i := 0; i <= l; i++ {
		vc := s.vcs[i]
		vs.Uvarint(uint64(vc.Q))
		vs.Uvarint(uint64(vc.L))
		vicinity.EncodeSetsV2(vs, vc.Vics)
		vc.Col.EncodeWireV2(vs)
	}

	is, _ := s.params.instanceLevels()
	in := snap.AlignedSection(glInter)
	for _, i := range is {
		s.inters[i].EncodeWireV2(in)
	}

	// One aliased port array per label level, in instance order. The
	// landmark, part index and distance halves of each label are re-derived
	// from the landmark structures; only the first-edge ports need bytes.
	lb := snap.AlignedSection(glLabels)
	n := s.g.N()
	ports := make([]graph.Port, n)
	for _, i := range is {
		j := s.labelLevelOf(i)
		for v := 0; v < n; v++ {
			ports[v] = s.labels[v].port[j]
		}
		lb.PortArray(ports)
	}
	return nil
}

// labelLevelOf returns k(i) for an instance level i.
func (s *Scheme) labelLevelOf(i int) int {
	_, kOf := s.params.instanceLevels()
	return kOf(i)
}

func decodeSnapshot(g *graph.Graph, snap *wire.Snapshot) (simnet.Scheme, error) {
	n := g.N()
	if !g.Unit() {
		return nil, fmt.Errorf("schemegl: snapshot graph is weighted; Theorems 13/15 apply to unweighted graphs")
	}
	params, err := wire.Decode(snap, glParams, func(d *wire.Decoder) (Params, error) {
		return Params{L: int(d.Uvarint()), Variant: Variant(d.Uvarint()), Eps: d.Float64(), VicinityFactor: d.Float64()}, nil
	})
	if err != nil {
		return nil, err
	}
	if params.L < 2 || params.L > 64 {
		return nil, fmt.Errorf("schemegl: snapshot l=%d outside [2,64]", params.L)
	}
	if params.Variant != Minus && params.Variant != Plus {
		return nil, fmt.Errorf("schemegl: snapshot has unknown variant %d", params.Variant)
	}
	l := params.L

	s := &Scheme{g: g, params: params}
	s.deriveGranularity()

	if s.lms, err = wire.Decode(snap, glLandmarks, func(d *wire.Decoder) ([]*cluster.Landmarks, error) {
		lms := make([]*cluster.Landmarks, l+1)
		for i := range lms {
			var err error
			if lms[i], err = cluster.DecodeWireV2(d, n); err != nil {
				return nil, fmt.Errorf("schemegl: level %d landmarks: %w", i, err)
			}
		}
		return lms, nil
	}); err != nil {
		return nil, err
	}

	s.fores = make([]*schemeutil.ClusterForest, l+1)
	for i := 0; i <= l; i++ {
		trees, err := wire.Decode(snap, glForestSec(i), func(d *wire.Decoder) ([]*treeroute.Tree, error) {
			trees, err := treeroute.DecodeFlatForest(d, g)
			if err != nil {
				return nil, fmt.Errorf("schemegl: level %d forest: %w", i, err)
			}
			return trees, nil
		})
		if err != nil {
			return nil, err
		}
		if s.fores[i], err = schemeutil.RestoreClusterForest(s.lms[i], trees, n); err != nil {
			return nil, fmt.Errorf("schemegl: level %d forest: %w", i, err)
		}
	}

	// One interleaved section holds every level's (q, l), vicinities and
	// coloring.
	if s.vcs, err = wire.Decode(snap, glVicinities, func(d *wire.Decoder) ([]*schemeutil.VicinityColoring, error) {
		vcs := make([]*schemeutil.VicinityColoring, l+1)
		for i := range vcs {
			q := int(d.Uvarint())
			vl := int(d.Uvarint())
			if d.Err() != nil {
				return nil, d.Err()
			}
			if q < 1 || q > n {
				return nil, fmt.Errorf("schemegl: snapshot level %d has q=%d outside [1,%d]", i, q, n)
			}
			vics, err := vicinity.DecodeSetsV2(d, n)
			if err != nil {
				return nil, fmt.Errorf("schemegl: level %d vicinities: %w", i, err)
			}
			col, err := coloring.DecodeWireV2(d, n)
			if err != nil {
				return nil, fmt.Errorf("schemegl: level %d coloring: %w", i, err)
			}
			if vcs[i], err = schemeutil.RestoreVicinityColoring(q, vl, vics, col); err != nil {
				return nil, fmt.Errorf("schemegl: level %d: %w", i, err)
			}
		}
		return vcs, nil
	}); err != nil {
		return nil, err
	}

	// Partitions W^j and the Lemma 8 instances, re-derived exactly as New
	// derives them from the (decoded) landmark sets.
	is, kOf := params.instanceLevels()
	s.alphaOf = make([]map[graph.Vertex]int32, l+1)
	if s.inters, err = wire.Decode(snap, glInter, func(d *wire.Decoder) ([]*core.Inter, error) {
		inters := make([]*core.Inter, l+1)
		for _, i := range is {
			j := kOf(i)
			wParts, alpha := s.partitionLandmarks(i, j)
			s.alphaOf[j] = alpha
			inter, err := core.RestoreInterV2(core.InterConfig{
				Graph: g, Vics: s.vcs[i].Vics,
				UPartOf: s.vcs[i].PartOf, Reps: s.vcs[i].Reps, WParts: wParts, Eps: params.Eps,
			}, d)
			if err != nil {
				return nil, fmt.Errorf("schemegl: instance %d: %w", i, err)
			}
			inters[i] = inter
		}
		return inters, nil
	}); err != nil {
		return nil, err
	}

	s.buildHash()

	// Labels: the landmark, part and distance halves come from the decoded
	// landmark structures; the first-edge ports come off the aliased arrays,
	// validated against the owning landmark's degree before serving.
	if s.labels, err = wire.Decode(snap, glLabels, func(d *wire.Decoder) ([]glLabel, error) {
		labels := make([]glLabel, n)
		for v := range labels {
			labels[v] = newLabel(l)
		}
		for _, i := range is {
			j := kOf(i)
			ports := d.PortArray()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if len(ports) != n {
				return nil, fmt.Errorf("schemegl: snapshot level-%d label ports hold %d entries, want %d", j, len(ports), n)
			}
			for v := 0; v < n; v++ {
				pv := s.lms[j].P[v]
				port := ports[v]
				if pv == graph.Vertex(v) {
					if port != graph.NoPort {
						return nil, fmt.Errorf("schemegl: snapshot label of %d has a first edge at its own level-%d landmark", v, j)
					}
				} else if port < 0 || int(port) >= g.Degree(pv) {
					return nil, fmt.Errorf("schemegl: snapshot label of %d has invalid port %d at level-%d landmark %d", v, port, j, pv)
				}
				labels[v].p[j] = pv
				labels[v].alpha[j] = s.alphaOf[j][pv]
				labels[v].dist[j] = s.lms[j].DistA[v]
				labels[v].port[j] = port
			}
		}
		return labels, nil
	}); err != nil {
		return nil, err
	}

	s.buildTally()
	return s, nil
}
