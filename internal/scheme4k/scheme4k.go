// Package scheme4k implements Theorem 16 of the paper: a (4k-7+eps)-stretch
// labeled routing scheme for weighted graphs with O~((1/eps) n^{1/k} log D)
// routing tables - two stretch units below the Thorup-Zwick baseline at the
// same space.
//
// The scheme stores everything the (4k-5) TZ scheme stores, plus B(u,
// q-tilde) with q = n^{1/k}, a Lemma 6 coloring, and the Lemma 8 machinery
// toward an arbitrary q-part partition of A_{k-2}. Routing replaces the
// expensive top level of TZ: when the smallest label level whose cluster
// contains u is k-1, the message instead walks to the color representative
// of alpha(p_{k-2}(v)), follows Lemma 8 to p_{k-2}(v) on a (1+eps)-stretch
// path, and descends T(p_{k-2}(v)) to v.
package scheme4k

import (
	"fmt"
	"math"

	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/treeroute"
	"compactroute/internal/tzroute"
)

// Params configures the scheme.
type Params struct {
	K              int // stretch is 4k-7+eps; k >= 3
	Eps            float64
	VicinityFactor float64 // default 1.5
	Seed           int64
}

func (p *Params) fill() {
	if p.VicinityFactor == 0 {
		p.VicinityFactor = 1.5
	}
}

// label extends the TZ label with the W-part index of p_{k-2}(v).
type label struct {
	tz    tzroute.Label
	alpha int32
}

// Scheme is the preprocessed Theorem 16 scheme.
type Scheme struct {
	g      *graph.Graph
	k      int
	eps    float64
	h      *tzroute.Hierarchy
	vc     *schemeutil.VicinityColoring
	inter  *core.Inter
	labels []label
	tally  *space.Tally
}

var _ simnet.Scheme = (*Scheme)(nil)

// New runs the preprocessing phase.
func New(g *graph.Graph, paths graph.PathSource, params Params) (*Scheme, error) {
	params.fill()
	if params.K < 3 {
		return nil, fmt.Errorf("scheme4k: need k >= 3, got %d", params.K)
	}
	n := g.N()
	h, err := tzroute.NewHierarchy(g, tzroute.Params{K: params.K, Seed: params.Seed})
	if err != nil {
		return nil, fmt.Errorf("scheme4k: %w", err)
	}
	q := int(math.Ceil(math.Pow(float64(n), 1/float64(params.K))))
	vc, err := schemeutil.BuildVicinityColoring(g, q, params.VicinityFactor, params.Seed+5)
	if err != nil {
		return nil, fmt.Errorf("scheme4k: %w", err)
	}
	wParts, alphaOf := landmarkParts(h.Levels[params.K-2], q)
	inter, err := core.NewInter(core.InterConfig{
		Graph: g, Paths: paths, Vics: vc.Vics,
		UPartOf: vc.PartOf, Reps: vc.Reps, WParts: wParts, Eps: params.Eps,
	})
	if err != nil {
		return nil, fmt.Errorf("scheme4k: %w", err)
	}
	return assemble(g, params.K, params.Eps, h, vc, inter, alphaOf)
}

// assemble derives the labels and the storage tally from the hierarchy,
// the vicinity coloring, the Lemma 8 structure and the part index alphaOf of
// every A_{k-2} landmark; the builder and the snapshot decoder both end
// here. A p_{k-2}(v) outside A_{k-2}, which only a corrupt snapshot can
// hold, fails instead of taking part 0.
func assemble(g *graph.Graph, k int, eps float64, h *tzroute.Hierarchy, vc *schemeutil.VicinityColoring, inter *core.Inter, alphaOf map[graph.Vertex]int32) (*Scheme, error) {
	n := g.N()
	s := &Scheme{g: g, k: k, eps: eps, h: h, vc: vc, inter: inter,
		labels: make([]label, n), tally: space.NewTally(n)}
	for v := 0; v < n; v++ {
		tl := h.LabelOf(graph.Vertex(v))
		a, ok := alphaOf[tl.P[k-2]]
		if !ok {
			return nil, fmt.Errorf("scheme4k: snapshot p_%d(%d)=%d is not an A_%d landmark", k-2, v, tl.P[k-2], k-2)
		}
		s.labels[v] = label{tz: tl, alpha: a}
	}
	h.AddWords(s.tally)
	vc.AddWords(s.tally)
	inter.AddTableWords(s.tally)
	return s, nil
}

// landmarkParts is the W partition of Theorem 16: an arbitrary (but fixed)
// split of A_{k-2} into q chunks in level order, with the part index
// alpha(w) of every landmark. It is a pure function of (A_{k-2}, q), so the
// snapshot restore path re-derives it instead of storing it.
func landmarkParts(ak2 []graph.Vertex, q int) ([][]graph.Vertex, map[graph.Vertex]int32) {
	wParts := make([][]graph.Vertex, q)
	chunk := (len(ak2) + q - 1) / q
	if chunk < 1 {
		chunk = 1
	}
	alphaOf := make(map[graph.Vertex]int32, len(ak2))
	for i, w := range ak2 {
		j := i / chunk
		wParts[j] = append(wParts[j], w)
		alphaOf[w] = int32(j)
	}
	return wParts, alphaOf
}

type phase int8

const (
	phaseVicinity phase = iota + 1
	phaseTree           // descending a TZ cluster tree
	phaseToRep
	phaseInter
)

type packet struct {
	dst   graph.Vertex
	lbl   label
	ph    phase
	root  graph.Vertex
	tlbl  treeroute.Label
	rep   graph.Vertex
	inter *core.InterState
}

// Name implements simnet.Scheme.
func (s *Scheme) Name() string {
	return fmt.Sprintf("thm16-k%d-%d+eps", s.k, 4*s.k-7)
}

// Graph implements simnet.Scheme.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Prepare implements simnet.Scheme.
func (s *Scheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	pk := &packet{dst: dst, lbl: s.labels[dst]}
	if src == dst || s.vc.Vics[src].Contains(dst) {
		pk.ph = phaseVicinity
		return pk, nil
	}
	// TZ refinement: v in C(src).
	if lbl := s.h.Trees[src].LabelOf(dst); lbl != treeroute.NoLabel {
		pk.ph = phaseTree
		pk.root = src
		pk.tlbl = lbl
		return pk, nil
	}
	for i := 0; i < s.k-1; i++ {
		w := pk.lbl.tz.P[i]
		if s.h.InBunch(src, w) {
			pk.ph = phaseTree
			pk.root = w
			pk.tlbl = pk.lbl.tz.Tlbl[i]
			return pk, nil
		}
	}
	// Level k-1 would cost (4k-5): replace it with the Lemma 8 detour
	// through p_{k-2}(v).
	pk.ph = phaseToRep
	pk.rep = s.vc.Reps[src][pk.lbl.alpha]
	return pk, nil
}

// Next implements simnet.Scheme.
func (s *Scheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	pk, ok := p.(*packet)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme4k: foreign packet %T", p)
	}
	if at == pk.dst {
		return simnet.Deliver(), nil
	}
	switch pk.ph {
	case phaseVicinity:
		return s.vicinityStep(at, pk.dst)
	case phaseTree:
		deliver, port, err := s.h.Trees[pk.root].Next(at, pk.tlbl)
		if err != nil {
			return simnet.Decision{}, err
		}
		if deliver {
			return simnet.Deliver(), nil
		}
		return simnet.Forward(port), nil
	case phaseToRep:
		if at != pk.rep {
			return s.vicinityStep(at, pk.rep)
		}
		st, err := s.inter.Start(at, pk.lbl.tz.P[s.k-2])
		if err != nil {
			return simnet.Decision{}, fmt.Errorf("scheme4k: inter start: %w", err)
		}
		pk.ph = phaseInter
		pk.inter = st
		fallthrough
	case phaseInter:
		pk2 := pk.lbl.tz.P[s.k-2]
		if at != pk2 {
			return s.inter.Step(at, pk.inter)
		}
		// Arrived at p_{k-2}(v): descend its cluster tree to v.
		pk.ph = phaseTree
		pk.root = pk2
		pk.tlbl = pk.lbl.tz.Tlbl[s.k-2]
		deliver, port, err := s.h.Trees[pk.root].Next(at, pk.tlbl)
		if err != nil {
			return simnet.Decision{}, err
		}
		if deliver {
			return simnet.Deliver(), nil
		}
		return simnet.Forward(port), nil
	default:
		return simnet.Decision{}, fmt.Errorf("scheme4k: corrupt packet phase %d", pk.ph)
	}
}

func (s *Scheme) vicinityStep(at, target graph.Vertex) (simnet.Decision, error) {
	first, ok := s.vc.Vics[at].FirstHop(target)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme4k: %d lost vicinity target %d", at, target)
	}
	return simnet.Forward(s.g.PortTo(at, first)), nil
}

// HeaderWords implements simnet.Scheme.
func (s *Scheme) HeaderWords(p simnet.Packet) int {
	pk := p.(*packet)
	w := 7
	if pk.inter != nil {
		w += pk.inter.Words()
	}
	return w
}

// TableWords implements simnet.Scheme.
func (s *Scheme) TableWords(v graph.Vertex) int { return s.tally.At(int(v)) }

// Tally exposes the storage breakdown.
func (s *Scheme) Tally() *space.Tally { return s.tally }

// LabelWords implements simnet.Scheme: the TZ label plus alpha(p_{k-2}(v)).
func (s *Scheme) LabelWords(graph.Vertex) int { return 2*s.k + 1 }

// StretchBound implements simnet.Scheme. The proof gives
// d + (1+eps)(2d + d(p_{k-2}(v), v)) + d(p_{k-2}(v), v) with
// d(p_{k-2}(v), v) <= (2k-5)d, i.e. (4k-7 + (2k-3) eps) d; the pure-TZ
// levels give at most (4k-9)d.
func (s *Scheme) StretchBound(d float64) float64 {
	return (float64(4*s.k-7) + float64(2*s.k-3)*s.eps) * d
}
