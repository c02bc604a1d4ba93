package live

import (
	"errors"
	"fmt"

	"compactroute/internal/graph"
	"compactroute/internal/obs"
	"compactroute/internal/simnet"
)

// ErrUnreachable reports a destination with no finite effective route.
var ErrUnreachable = errors.New("live: destination unreachable in the effective graph")

// Result is the outcome of one overlay-patched route.
type Result struct {
	Src, Dst    graph.Vertex
	Hops        int
	Weight      float64 // effective (current) weight of the traversed walk
	HeaderWords int
	// DeadHits counts scheme decisions that chose a dead edge: at most one,
	// since the first ends the scheme walk at the abandon point.
	DeadHits int
	// Detours is always 0.
	//
	// Deprecated: the bounded local detour around a dead edge is gone; a
	// dead hit now always ends in the exact fallback. The field stays so
	// readers of earlier results keep compiling.
	Detours int
	// Fallback reports that the route was completed by an exact shortest
	// path from the abandon point (a dead hit, the hop budget exhausted, or
	// the scheme failed on its own state).
	Fallback bool
	Err      error
}

// Stale reports whether the route was served degraded: it was completed by
// the exact fallback. A non-stale route is exactly the walk the preprocessed
// scheme would have taken on its own graph.
func (r Result) Stale() bool { return r.Fallback }

// Router executes one preprocessed scheme hop by hop against the current
// effective graph: scheme decisions are taken verbatim while their edges are
// alive (at current weights), and the first decision that chooses a dead
// edge - or any failure of the scheme itself - ends the walk at that vertex,
// the abandon point, from which one exact search finishes the route. A
// Router is immutable and safe for concurrent use; the overlay it consults
// is shared and live.
type Router struct {
	scheme  simnet.Scheme
	reuse   simnet.ReusableScheme // non-nil when scheme supports packet reuse
	phaser  simnet.PhaseReporter  // non-nil when scheme reports routing phases
	g       *graph.Graph
	ov      *Overlay
	maxHops int
}

// NewRouter wraps a preprocessed scheme for overlay-patched execution. The
// scheme walk's hop budget is simnet's loop-protection default of 8n+64.
// The scheme's graph must have the overlay's vertex count (schemes of any
// generation route against the same vertex set).
func NewRouter(s simnet.Scheme, ov *Overlay) (*Router, error) {
	g := s.Graph()
	if g.N() != ov.N() {
		return nil, fmt.Errorf("live: scheme graph has %d vertices, overlay %d", g.N(), ov.N())
	}
	r := &Router{scheme: s, g: g, ov: ov, maxHops: 8*g.N() + 64}
	r.reuse, _ = s.(simnet.ReusableScheme)
	r.phaser, _ = s.(simnet.PhaseReporter)
	return r, nil
}

// Scheme returns the preprocessed scheme being patched.
func (r *Router) Scheme() simnet.Scheme { return r.scheme }

// Route serves one query with a fresh packet and no trace.
func (r *Router) Route(src, dst graph.Vertex) Result {
	res, _ := r.RouteInto(nil, src, dst, nil)
	return res
}

// RouteInto serves one query. scratch is a packet returned by an earlier
// RouteInto on this router (or nil); with a simnet.ReusableScheme the route
// prepares into it, and the packet used is returned for the caller to pass
// back in. tr, when non-nil, records the scheme phase about to act at each
// hop and the overlay's fallback step.
//
// When the overlay is empty at route start the effective graph is the
// scheme's own graph: the walk reads base weights, never takes the overlay
// lock, and a scheme failure (Prepare/Next error, bad port, hop limit) is
// the routing error simnet.Network reports. Over a non-empty overlay every
// returned route is a real walk in the effective graph with its current
// weights; when the scheme alone cannot produce one (a dead hit or a scheme
// failure), the exact fallback completes it from the abandon point and the
// Result says so, and Err is non-nil only for invalid pairs, unreachable
// destinations or a delivery at the wrong vertex.
func (r *Router) RouteInto(scratch simnet.Packet, src, dst graph.Vertex, tr *obs.Trace) (Result, simnet.Packet) {
	res := Result{Src: src, Dst: dst}
	if n := graph.Vertex(r.g.N()); src < 0 || src >= n || dst < 0 || dst >= n {
		res.Err = fmt.Errorf("live: pair (%d, %d) out of range [0, %d)", src, dst, n)
		return res, scratch
	}
	patched := !r.ov.Empty()
	var pkt simnet.Packet
	var err error
	if r.reuse != nil {
		pkt, err = r.reuse.PrepareInto(scratch, src, dst)
	} else {
		pkt, err = r.scheme.Prepare(src, dst)
	}
	if err != nil {
		return r.abandon(res, patched, src, tr, fmt.Errorf("prepare %d->%d: %w", src, dst, err)), pkt
	}
	res.HeaderWords = r.scheme.HeaderWords(pkt)
	at := src
	for {
		if tr != nil {
			ph := obs.PhaseNone
			if r.phaser != nil {
				ph = r.phaser.RoutePhase(pkt)
			}
			tr.Step(int32(at), ph)
		}
		d, err := r.scheme.Next(at, pkt)
		if err != nil {
			return r.abandon(res, patched, at, tr, fmt.Errorf("next at %d (%d->%d, hop %d): %w", at, src, dst, res.Hops, err)), pkt
		}
		if hw := r.scheme.HeaderWords(pkt); hw > res.HeaderWords {
			res.HeaderWords = hw
		}
		if d.Deliver {
			if at != dst {
				res.Err = fmt.Errorf("live: packet %d->%d delivered at wrong vertex %d", src, dst, at)
			}
			return res, pkt
		}
		if d.Port < 0 || int(d.Port) >= r.g.Degree(at) {
			return r.abandon(res, patched, at, tr, fmt.Errorf("live: invalid port %d at vertex %d (degree %d)", d.Port, at, r.g.Degree(at))), pkt
		}
		next, w, _ := r.g.Endpoint(at, d.Port)
		alive := true
		if patched {
			w, alive = r.ov.EffectiveWeight(at, next, w)
		}
		if !alive {
			res.DeadHits++
			return r.fallbackTraced(res, at, dst, tr), pkt
		}
		res.Hops++
		res.Weight += w
		at = next
		if res.Hops > r.maxHops {
			return r.abandon(res, patched, at, tr, fmt.Errorf("routing %d->%d: %w (limit %d)", src, dst, simnet.ErrHopLimit, r.maxHops)), pkt
		}
	}
}

// abandon ends a route the scheme could not complete on its own: over a
// patched overlay the exact fallback finishes it from at; on the scheme's
// own graph the failure is the route's error.
func (r *Router) abandon(res Result, patched bool, at graph.Vertex, tr *obs.Trace, err error) Result {
	if !patched {
		res.Err = err
		return res
	}
	return r.fallbackTraced(res, at, res.Dst, tr)
}

// fallbackTraced completes the route from the packet's current position with
// an exact shortest path over the effective graph (Overlay.shortestPath).
func (r *Router) fallbackTraced(res Result, at, dst graph.Vertex, tr *obs.Trace) Result {
	res.Fallback = true
	if tr != nil {
		tr.Step(int32(at), obs.PhaseFallback)
		tr.Fallback = true
	}
	if at == dst {
		return res
	}
	hops, w, ok := r.ov.shortestPath(at, dst)
	if !ok {
		res.Err = fmt.Errorf("live: routing %d->%d: %w", res.Src, dst, ErrUnreachable)
		return res
	}
	res.Hops += hops
	res.Weight += w
	return res
}
