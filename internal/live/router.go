package live

import (
	"errors"
	"fmt"

	"compactroute/internal/graph"
	"compactroute/internal/obs"
	"compactroute/internal/simnet"
)

// DefaultDetourBudget is the number of vertices a dead-edge local search may
// finalize before the router gives up on detouring and falls back to one
// exact search for the whole remaining route.
const DefaultDetourBudget = 64

// ErrUnreachable reports a destination with no finite effective route.
var ErrUnreachable = errors.New("live: destination unreachable in the effective graph")

// Result is the outcome of one overlay-patched route.
type Result struct {
	Src, Dst    graph.Vertex
	Hops        int
	Weight      float64 // effective (current) weight of the traversed walk
	HeaderWords int
	// DeadHits counts scheme decisions that chose a dead edge.
	DeadHits int
	// Detours counts dead edges successfully bypassed by bounded local
	// search; DetourHops is the total length of those bypasses.
	Detours    int
	DetourHops int
	// Fallback reports that the route was completed by a per-query exact
	// search (detour budget exhausted, hop budget exhausted, or the scheme
	// failed on its own state).
	Fallback bool
	Err      error
}

// Stale reports whether the route was served degraded: it crossed at least
// one overlay-patched decision (detour or fallback). A non-stale route is
// exactly the walk the preprocessed scheme would have taken on its own
// graph.
func (r Result) Stale() bool { return r.DeadHits > 0 || r.Fallback }

// Router executes one preprocessed scheme hop by hop against the current
// effective graph: scheme decisions are taken verbatim while their edges are
// alive (at current weights), dead edges are bypassed with bounded local
// search, and a per-query exact search finishes any route the scheme can no
// longer complete. A Router is immutable and safe for concurrent use; the
// overlay it consults is shared and live.
type Router struct {
	scheme  simnet.Scheme
	reuse   simnet.ReusableScheme // non-nil when scheme supports packet reuse
	phaser  simnet.PhaseReporter  // non-nil when scheme reports routing phases
	g       *graph.Graph
	ov      *Overlay
	budget  int
	maxHops int
}

// NewRouter wraps a preprocessed scheme for overlay-patched execution.
// budget <= 0 selects DefaultDetourBudget; maxHops <= 0 keeps the simnet
// default of 8n+64. The scheme's graph must have the overlay's vertex count
// (schemes of any generation route against the same vertex set).
func NewRouter(s simnet.Scheme, ov *Overlay, budget, maxHops int) (*Router, error) {
	g := s.Graph()
	if g.N() != ov.N() {
		return nil, fmt.Errorf("live: scheme graph has %d vertices, overlay %d", g.N(), ov.N())
	}
	if budget <= 0 {
		budget = DefaultDetourBudget
	}
	if maxHops <= 0 {
		maxHops = 8*g.N() + 64
	}
	r := &Router{scheme: s, g: g, ov: ov, budget: budget, maxHops: maxHops}
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
// hop and the overlay's detour and fallback steps.
//
// When the overlay is empty at route start the effective graph is the
// scheme's own graph: the walk reads base weights, never takes the overlay
// lock, and a scheme failure (Prepare/Next error, bad port, hop limit) is
// the routing error simnet.Network reports. Over a non-empty overlay every
// returned route is a real walk in the effective graph with its current
// weights; when the scheme alone cannot produce one, the route is completed
// by detour or exact fallback and the Result says so, and Err is non-nil
// only for invalid pairs, unreachable destinations or a delivery at the
// wrong vertex.
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
		if alive {
			res.Hops++
			res.Weight += w
			at = next
		} else {
			res.DeadHits++
			if tr != nil {
				tr.Step(int32(at), obs.PhaseDetour)
			}
			path, pw, ok := r.ov.detour(at, next, r.budget, false)
			if !ok {
				return r.fallbackTraced(res, at, dst, tr), pkt
			}
			res.Detours++
			res.DetourHops += len(path) - 1
			res.Hops += len(path) - 1
			res.Weight += pw
			at = next
		}
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
// one exact search over the effective graph.
func (r *Router) fallbackTraced(res Result, at, dst graph.Vertex, tr *obs.Trace) Result {
	res.Fallback = true
	if tr != nil {
		tr.Step(int32(at), obs.PhaseFallback)
		tr.Fallback = true
	}
	if at == dst {
		return res
	}
	path, w, ok := r.ov.exact(at, dst)
	if !ok {
		res.Err = fmt.Errorf("live: routing %d->%d: %w", res.Src, dst, ErrUnreachable)
		return res
	}
	res.Hops += len(path) - 1
	res.Weight += w
	return res
}
