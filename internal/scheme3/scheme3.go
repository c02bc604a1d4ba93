// Package scheme3 implements the warm-up application of Section 4: a
// (3+eps)-stretch labeled routing scheme with O~((1/eps) sqrt(n))-word
// routing tables, for weighted graphs.
//
// Construction: q = ceil(sqrt(n)); color the vertices with q colors so every
// vicinity B(u, q-tilde) is rainbow (Lemma 6); apply the Lemma 7 technique
// to the color classes. To route u -> v: if v is in B(u, q-tilde) follow the
// Lemma 2 first-hop table; otherwise walk (on a shortest path) to the
// representative w of color c(v) inside B(u, q-tilde) and route w -> v with
// Lemma 7. The triangle inequality gives length <= d(u,w) + (1+eps)d(w,v)
// <= (3+2eps) d(u,v).
package scheme3

import (
	"fmt"
	"math"

	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
)

// Params configures the scheme.
type Params struct {
	Eps float64
	// VicinityFactor is the paper's "large enough constant" alpha in
	// q-tilde = alpha q log n. Defaults to 1.5.
	VicinityFactor float64
	Seed           int64
}

func (p *Params) fill() {
	if p.VicinityFactor == 0 {
		p.VicinityFactor = 1.5
	}
}

// Scheme is the preprocessed (3+eps) routing scheme.
type Scheme struct {
	g     *graph.Graph
	eps   float64
	vc    *schemeutil.VicinityColoring
	intra *core.Intra
	tally *space.Tally
}

var _ simnet.ReusableScheme = (*Scheme)(nil)

// New runs the preprocessing phase.
func New(g *graph.Graph, paths graph.PathSource, params Params) (*Scheme, error) {
	params.fill()
	n := g.N()
	q := int(math.Ceil(math.Sqrt(float64(n))))
	vc, err := schemeutil.BuildVicinityColoring(g, q, params.VicinityFactor, params.Seed)
	if err != nil {
		return nil, fmt.Errorf("scheme3: %w", err)
	}
	intra, err := core.NewIntra(core.IntraConfig{
		Graph: g, Paths: paths, Vics: vc.Vics, PartOf: vc.PartOf, Eps: params.Eps,
	})
	if err != nil {
		return nil, fmt.Errorf("scheme3: %w", err)
	}
	return assemble(g, params.Eps, vc, intra), nil
}

// assemble derives the storage tally, the only state beyond the encoded
// vicinity coloring and Lemma 7 structure; the builder and the snapshot
// decoder both end here.
func assemble(g *graph.Graph, eps float64, vc *schemeutil.VicinityColoring, intra *core.Intra) *Scheme {
	s := &Scheme{g: g, eps: eps, vc: vc, intra: intra, tally: space.NewTally(g.N())}
	vc.AddWords(s.tally)
	intra.AddTableWords(s.tally)
	return s
}

// phase of an in-flight packet.
type phase int8

const (
	phaseVicinity phase = iota + 1 // target in B(u, q-tilde): Lemma 2
	phaseToRep                     // walking to the color representative
	phaseIntra                     // Lemma 7 leg
)

type packet struct {
	dst   graph.Vertex
	color int32
	ph    phase
	rep   graph.Vertex
	intra *core.IntraState
	// scratch is a retained IntraState for packet reuse. It is distinct
	// from intra, which stays nil until the Lemma 7 leg actually starts:
	// HeaderWords only charges the intra words once intra is non-nil, and a
	// recycled state must not inflate the next route's high-water mark.
	scratch *core.IntraState
}

// Name implements simnet.Scheme.
func (s *Scheme) Name() string { return "warmup-3+eps" }

// Graph implements simnet.Scheme.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Prepare implements simnet.Scheme. It uses src's table (vicinity membership
// and representatives) and dst's label (its id and color).
func (s *Scheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	return s.prepare(&packet{}, src, dst)
}

// PrepareInto implements simnet.ReusableScheme.
func (s *Scheme) PrepareInto(scratch simnet.Packet, src, dst graph.Vertex) (simnet.Packet, error) {
	pk, ok := scratch.(*packet)
	if !ok {
		pk = &packet{}
	}
	return s.prepare(pk, src, dst)
}

func (s *Scheme) prepare(pk *packet, src, dst graph.Vertex) (simnet.Packet, error) {
	scratch := pk.scratch
	if pk.intra != nil {
		scratch = pk.intra
	}
	*pk = packet{dst: dst, color: s.vc.PartOf[dst], scratch: scratch}
	switch {
	case src == dst || s.vc.Vics[src].Contains(dst):
		pk.ph = phaseVicinity
	default:
		pk.ph = phaseToRep
		pk.rep = s.vc.Reps[src][pk.color]
	}
	return pk, nil
}

// Next implements simnet.Scheme.
func (s *Scheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	pk, ok := p.(*packet)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme3: foreign packet %T", p)
	}
	if at == pk.dst {
		return simnet.Deliver(), nil
	}
	switch pk.ph {
	case phaseVicinity:
		return s.vicinityStep(at, pk.dst)
	case phaseToRep:
		if at != pk.rep {
			return s.vicinityStep(at, pk.rep)
		}
		st, err := s.intra.StartInto(pk.scratch, at, pk.dst)
		if err != nil {
			return simnet.Decision{}, fmt.Errorf("scheme3: intra start at rep %d: %w", at, err)
		}
		pk.ph = phaseIntra
		pk.intra = st
		pk.scratch = st
		fallthrough
	case phaseIntra:
		return s.intra.Step(at, pk.intra)
	default:
		return simnet.Decision{}, fmt.Errorf("scheme3: corrupt packet phase %d", pk.ph)
	}
}

func (s *Scheme) vicinityStep(at, target graph.Vertex) (simnet.Decision, error) {
	first, ok := s.vc.Vics[at].FirstHop(target)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme3: %d lost vicinity target %d", at, target)
	}
	return simnet.Forward(s.g.PortTo(at, first)), nil
}

// HeaderWords implements simnet.Scheme.
func (s *Scheme) HeaderWords(p simnet.Packet) int {
	pk := p.(*packet)
	w := 4 // dst, color, phase, rep
	if pk.intra != nil {
		w += pk.intra.Words()
	}
	return w
}

// TableWords implements simnet.Scheme.
func (s *Scheme) TableWords(v graph.Vertex) int { return s.tally.At(int(v)) }

// Tally exposes the storage breakdown for the experiments.
func (s *Scheme) Tally() *space.Tally { return s.tally }

// LabelWords implements simnet.Scheme: the label is (v, c(v)).
func (s *Scheme) LabelWords(graph.Vertex) int { return 2 }

// StretchBound implements simnet.Scheme: the proof gives (3 + 2eps)d.
func (s *Scheme) StretchBound(d float64) float64 { return (3 + 2*s.eps) * d }
