package live

import (
	"fmt"

	"compactroute/internal/graph"
	"compactroute/internal/simnet"
)

// PatchedScheme adapts an (inner scheme, overlay) pair back into a
// simnet.Scheme, so the concurrent goroutine-per-vertex executor
// (internal/netsim) and the deterministic simulator can run a degraded
// network unchanged: when the inner scheme forwards onto a dead edge, the
// patched scheme computes a bounded detour over the *surviving base edges*
// and emits it port by port.
//
// The executor crosses preprocessed ports of the inner scheme's graph, so
// detours are restricted to base edges (baseOnly searches); overlays with
// inserted edges need the Router, which walks the effective graph directly.
// Executors also account weights from the preprocessed graph, so the
// reported route weight is current only under deletion-only churn - the
// degraded scenario the netsim churn tests cover.
type PatchedScheme struct {
	inner  simnet.Scheme
	ov     *Overlay
	budget int
}

var _ simnet.Scheme = (*PatchedScheme)(nil)

// AsScheme wraps a preprocessed scheme and an overlay as a simnet.Scheme.
// budget <= 0 selects DefaultDetourBudget.
func AsScheme(s simnet.Scheme, ov *Overlay, budget int) (*PatchedScheme, error) {
	if s.Graph().N() != ov.N() {
		return nil, fmt.Errorf("live: scheme graph has %d vertices, overlay %d", s.Graph().N(), ov.N())
	}
	if budget <= 0 {
		budget = DefaultDetourBudget
	}
	return &PatchedScheme{inner: s, ov: ov, budget: budget}, nil
}

// patchedPacket carries the inner packet plus any pending detour ports.
type patchedPacket struct {
	inner  simnet.Packet
	detour []graph.Port
}

// Name implements simnet.Scheme.
func (p *PatchedScheme) Name() string { return p.inner.Name() + "+overlay" }

// Graph implements simnet.Scheme.
func (p *PatchedScheme) Graph() *graph.Graph { return p.inner.Graph() }

// Prepare implements simnet.Scheme.
func (p *PatchedScheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	in, err := p.inner.Prepare(src, dst)
	if err != nil {
		return nil, err
	}
	return &patchedPacket{inner: in}, nil
}

// Next implements simnet.Scheme: pending detour ports drain first; then the
// inner decision is taken, patched when it crosses a dead edge.
func (p *PatchedScheme) Next(at graph.Vertex, pk simnet.Packet) (simnet.Decision, error) {
	pp, ok := pk.(*patchedPacket)
	if !ok {
		return simnet.Decision{}, fmt.Errorf("live: foreign packet %T", pk)
	}
	if len(pp.detour) > 0 {
		port := pp.detour[0]
		pp.detour = pp.detour[1:]
		return simnet.Forward(port), nil
	}
	d, err := p.inner.Next(at, pp.inner)
	if err != nil || d.Deliver {
		return d, err
	}
	g := p.inner.Graph()
	if d.Port < 0 || int(d.Port) >= g.Degree(at) {
		return simnet.Decision{}, fmt.Errorf("live: inner scheme chose invalid port %d at %d", d.Port, at)
	}
	next, baseW, _ := g.Endpoint(at, d.Port)
	if _, alive := p.ov.EffectiveWeight(at, next, baseW); alive {
		return d, nil
	}
	// Dead edge: compute a surviving-base-edge detour at..next and emit it
	// port by port. The inner packet is left exactly as if the packet had
	// crossed {at, next} directly.
	var path []graph.Vertex
	_, _, found := p.ov.detour(at, next, p.budget, true, &path)
	if !found {
		return simnet.Decision{}, fmt.Errorf("live: no detour within budget %d around dead edge {%d,%d}", p.budget, at, next)
	}
	ports := make([]graph.Port, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		port := g.PortTo(path[i], path[i+1])
		if port == graph.NoPort {
			return simnet.Decision{}, fmt.Errorf("live: detour step {%d,%d} is not a base edge", path[i], path[i+1])
		}
		ports = append(ports, port)
	}
	pp.detour = ports[1:]
	return simnet.Forward(ports[0]), nil
}

// HeaderWords implements simnet.Scheme: the inner header plus the pending
// detour ports riding in the packet.
func (p *PatchedScheme) HeaderWords(pk simnet.Packet) int {
	pp := pk.(*patchedPacket)
	return p.inner.HeaderWords(pp.inner) + len(pp.detour)
}

// TableWords implements simnet.Scheme.
func (p *PatchedScheme) TableWords(v graph.Vertex) int { return p.inner.TableWords(v) }

// LabelWords implements simnet.Scheme.
func (p *PatchedScheme) LabelWords(v graph.Vertex) int { return p.inner.LabelWords(v) }

// StretchBound implements simnet.Scheme. Under churn the preprocessed bound
// is not a guarantee - the serving layer reports measured staleness stretch
// instead - so the inner bound is passed through unchanged for reference.
func (p *PatchedScheme) StretchBound(d float64) float64 { return p.inner.StretchBound(d) }
