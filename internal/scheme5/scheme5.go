// Package scheme5 implements Theorem 11 of the paper - its headline result:
// a (5+eps)-stretch labeled routing scheme for weighted graphs with
// O~((1/eps) n^{1/3} log D)-word routing tables, breaking the sqrt(n) space
// barrier for stretch below 7 and nearly matching the 5-stretch distance
// oracle of Thorup and Zwick.
//
// Construction (q = n^{1/3}):
//   - every vertex stores B(u, q-tilde);
//   - a landmark set A with |C_A(w)| = O(n^{1/3}) (Lemma 4); every cluster
//     tree is routable and roots keep their members' tree labels;
//   - a Lemma 6 coloring with q colors; W partitions A into q parts of size
//     |A|/q; the Lemma 8 machinery routes from the color class U_i to W_i;
//   - the label of v holds p_A(v), the index alpha(p_A(v)) of its part in W,
//     and the first edge (p_A(v), z) of a shortest path from p_A(v) to v.
//
// Routing u -> v: if v is in B(u, q-tilde), Lemma 2; if v is in C_A(u),
// descend u's own cluster tree; otherwise walk to the representative w of
// color alpha(p_A(v)), route w -> p_A(v) with Lemma 8, cross the stored
// first edge to z, and descend the cluster tree of z (v is in C_A(z)).
// Total length <= d(u,w) + (1+eps)d(w, p_A(v)) + d(p_A(v), v)
// <= (5+3eps) d(u,v).
package scheme5

import (
	"fmt"
	"math"
	"sync"

	"compactroute/internal/cluster"
	"compactroute/internal/core"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/treeroute"
	"compactroute/internal/vicinity"
)

// Params configures the scheme.
type Params struct {
	Eps            float64
	VicinityFactor float64 // default 1.5
	Seed           int64
}

func (p *Params) fill() {
	if p.VicinityFactor == 0 {
		p.VicinityFactor = 1.5
	}
}

// label is the O(log n)-bit label of Theorem 11.
type label struct {
	pa     graph.Vertex // p_A(v)
	alpha  int32        // index of p_A(v)'s part in W
	paPort graph.Port   // port at p_A(v) of the first edge toward v (NoPort when v == p_A(v))
}

// Scheme is the preprocessed Theorem 11 scheme.
type Scheme struct {
	g      *graph.Graph
	eps    float64
	vc     *schemeutil.VicinityColoring
	lms    *cluster.Landmarks
	fores  *schemeutil.ClusterForest
	inter  *core.Inter
	labels []label

	tallyOnce sync.Once // tally is computed on first use; routing never reads it
	tally     *space.Tally
}

var _ simnet.ReusableScheme = (*Scheme)(nil)

// New runs the preprocessing phase.
func New(g *graph.Graph, paths graph.PathSource, params Params) (*Scheme, error) {
	s, _, _, err := build(g, paths, params, false)
	return s, err
}

// build is the shared preprocessing body of New and NewRepairable; withTouch
// additionally records the reverse touch index of the vicinity family and
// the center-cover sampling trajectory (the repair path's dirty-set source
// and landmark-drift check).
func build(g *graph.Graph, paths graph.PathSource, params Params, withTouch bool) (*Scheme, *vicinity.Touch, *cluster.CoverTrace, error) {
	params.fill()
	n := g.N()
	q := int(math.Ceil(math.Cbrt(float64(n))))
	var (
		vc    *schemeutil.VicinityColoring
		touch *vicinity.Touch
		err   error
	)
	if withTouch {
		vc, touch, err = schemeutil.BuildVicinityColoringTouch(g, q, params.VicinityFactor, params.Seed)
	} else {
		vc, err = schemeutil.BuildVicinityColoring(g, q, params.VicinityFactor, params.Seed)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scheme5: %w", err)
	}
	sTarget := int(math.Ceil(math.Pow(float64(n), 2.0/3.0)))
	lms, trace, err := cluster.CenterCoverTrace(g, sTarget, params.Seed+37)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scheme5: %w", err)
	}
	fores, err := schemeutil.BuildClusterForest(g, lms)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scheme5: %w", err)
	}
	wParts, alphaOf := landmarkParts(lms.A, q)
	inter, err := core.NewInter(core.InterConfig{
		Graph: g, Paths: paths, Vics: vc.Vics,
		UPartOf: vc.PartOf, Reps: vc.Reps, WParts: wParts, Eps: params.Eps,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scheme5: %w", err)
	}
	s := &Scheme{g: g, eps: params.Eps, vc: vc, lms: lms, fores: fores, inter: inter,
		labels: make([]label, n)}
	for v := 0; v < n; v++ {
		pa := lms.P[v]
		lbl := label{pa: pa, alpha: alphaOf[pa], paPort: graph.NoPort}
		if pa != graph.Vertex(v) {
			z := paths.First(pa, graph.Vertex(v))
			lbl.paPort = g.PortTo(pa, z)
			if lbl.paPort == graph.NoPort {
				return nil, nil, nil, fmt.Errorf("scheme5: first edge (%d,%d) missing", pa, z)
			}
		}
		s.labels[v] = lbl
	}
	return s, touch, trace, nil
}

// landmarkParts is the W partition of Theorem 11: an arbitrary (but fixed)
// split of A into q parts of at most ceil(|A|/q) landmarks, with the part
// index alpha(w) of every landmark. It is a pure function of (A, q), so the
// snapshot restore path re-derives it instead of storing it.
func landmarkParts(a []graph.Vertex, q int) ([][]graph.Vertex, map[graph.Vertex]int32) {
	wParts := make([][]graph.Vertex, q)
	chunk := (len(a) + q - 1) / q
	if chunk < 1 {
		chunk = 1
	}
	alphaOf := make(map[graph.Vertex]int32, len(a))
	for i, w := range a {
		j := i / chunk
		wParts[j] = append(wParts[j], w)
		alphaOf[w] = int32(j)
	}
	return wParts, alphaOf
}

type phase int8

const (
	phaseVicinity phase = iota + 1
	phaseOwnClust       // v in C_A(u): descend u's cluster tree
	phaseToRep
	phaseInter    // Lemma 8 leg toward p_A(v)
	phaseClustTre // descend the cluster tree of z
)

type packet struct {
	dst      graph.Vertex
	lbl      label
	ph       phase
	rep      graph.Vertex
	inter    *core.InterState
	treeRoot graph.Vertex
	tlbl     treeroute.Label
	// scratch is a retained InterState for packet reuse. It is distinct
	// from inter, which stays nil until the Lemma 8 leg actually starts:
	// HeaderWords only charges the inter words once inter is non-nil, and a
	// recycled state must not inflate the next route's high-water mark.
	scratch *core.InterState
}

// Name implements simnet.Scheme.
func (s *Scheme) Name() string { return "thm11-5+eps" }

// Graph implements simnet.Scheme.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Prepare implements simnet.Scheme.
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
	// Keep the larger of the retained and in-flight inter states as the next
	// route's scratch; everything else resets.
	scratch := pk.scratch
	if pk.inter != nil {
		scratch = pk.inter
	}
	*pk = packet{dst: dst, lbl: s.labels[dst], scratch: scratch}
	switch {
	case src == dst || s.vc.Vics[src].Contains(dst):
		pk.ph = phaseVicinity
	default:
		if lbl, ok := s.fores.LabelAtRoot(src, dst); ok {
			pk.ph = phaseOwnClust
			pk.treeRoot = src
			pk.tlbl = lbl
			break
		}
		pk.ph = phaseToRep
		pk.rep = s.vc.Reps[src][pk.lbl.alpha]
	}
	return pk, nil
}

// Next implements simnet.Scheme.
func (s *Scheme) Next(at graph.Vertex, p simnet.Packet) (simnet.Decision, error) {
	pk, ok := p.(*packet)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme5: foreign packet %T", p)
	}
	if at == pk.dst {
		return simnet.Deliver(), nil
	}
	switch pk.ph {
	case phaseVicinity:
		return s.vicinityStep(at, pk.dst)
	case phaseOwnClust, phaseClustTre:
		deliver, port, err := schemeutil.TreeStep(s.fores.Tree(pk.treeRoot), at, pk.tlbl)
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
		st, err := s.inter.StartInto(pk.scratch, at, pk.lbl.pa)
		if err != nil {
			return simnet.Decision{}, fmt.Errorf("scheme5: inter start: %w", err)
		}
		pk.ph = phaseInter
		pk.inter = st
		pk.scratch = st
		fallthrough
	case phaseInter:
		if at != pk.lbl.pa {
			return s.inter.Step(at, pk.inter)
		}
		// Arrived at p_A(v): cross the label's first edge to z, then v is in
		// C_A(z) and z holds v's tree label.
		if pk.lbl.paPort == graph.NoPort {
			return simnet.Decision{}, fmt.Errorf("scheme5: at p_A(v)=%d but destination %d is elsewhere", at, pk.dst)
		}
		z, _, _ := s.g.Endpoint(at, pk.lbl.paPort)
		lbl, ok := s.fores.LabelAtRoot(z, pk.dst)
		if !ok {
			return simnet.Decision{}, fmt.Errorf("scheme5: %d not in cluster of %d", pk.dst, z)
		}
		pk.ph = phaseClustTre
		pk.treeRoot = z
		pk.tlbl = lbl
		return simnet.Forward(pk.lbl.paPort), nil
	default:
		return simnet.Decision{}, fmt.Errorf("scheme5: corrupt packet phase %d", pk.ph)
	}
}

func (s *Scheme) vicinityStep(at, target graph.Vertex) (simnet.Decision, error) {
	first, ok := s.vc.Vics[at].FirstHop(target)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("scheme5: %d lost vicinity target %d", at, target)
	}
	return simnet.Forward(s.g.PortTo(at, first)), nil
}

// HeaderWords implements simnet.Scheme.
func (s *Scheme) HeaderWords(p simnet.Packet) int {
	pk := p.(*packet)
	w := 8
	if pk.inter != nil {
		w += pk.inter.Words()
	}
	return w
}

// TableWords implements simnet.Scheme, reading Tally.
func (s *Scheme) TableWords(v graph.Vertex) int { return s.Tally().At(int(v)) }

// Tally exposes the storage breakdown, computed on the first call of Tally
// or TableWords. On a scheme decoded over a mapped snapshot that call reads
// the mapping, so like any use of the scheme it must come before the
// mapping is released.
func (s *Scheme) Tally() *space.Tally {
	s.tallyOnce.Do(func() {
		t := space.NewTally(s.g.N())
		s.vc.AddWords(t)
		s.fores.AddWords(t, "cluster-trees")
		s.inter.AddTableWords(t)
		s.tally = t
	})
	return s.tally
}

// LabelWords implements simnet.Scheme: v, p_A(v), alpha(p_A(v)), first-edge
// port - the 4 log n bits of the theorem statement.
func (s *Scheme) LabelWords(graph.Vertex) int { return 4 }

// Landmarks exposes |A| for the experiments.
func (s *Scheme) Landmarks() int { return len(s.lms.A) }

// StretchBound implements simnet.Scheme: the proof gives (5 + 3eps)d.
func (s *Scheme) StretchBound(d float64) float64 { return (5 + 3*s.eps) * d }
