package live

import (
	"compactroute/internal/graph"
)

// BoundedBidiDist is the overlay-aware twin of graph.BoundedBidiDist: the
// exact shortest-path distance from src to dst over the *effective* graph
// (base + overlay) when it is at most bound, Infinity otherwise. It holds
// the overlay's read lock for the whole run - one consistent effective graph
// even while updates land concurrently - and relaxes through the merged
// neighbor view, so its distances coincide bit-for-bit with
// graph.ShortestPaths over Overlay.Materialize() (the same integer-weight
// exactness argument as the base kernel; reweights keep weights integral).
// It is the one source of true distances for serving: Verify, the live
// auditor and routeserve's dist command all read it.
func (ov *Overlay) BoundedBidiDist(src, dst graph.Vertex, bound float64) float64 {
	if src == dst {
		return 0
	}
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	fw := ov.base.AcquireWorkspace()
	bw := ov.base.AcquireWorkspace()
	defer ov.base.ReleaseWorkspace(fw)
	defer ov.base.ReleaseWorkspace(bw)
	fw.Start(src)
	bw.Start(dst)
	best := graph.Infinity
	for {
		_, fd, fok := fw.Peek()
		_, bd, bok := bw.Peek()
		if !fok && !bok {
			break
		}
		if sum := fd + bd; sum >= best || sum > bound {
			break
		}
		if fd <= bd {
			ov.bidiExpand(fw, bw, &best)
		} else {
			ov.bidiExpand(bw, fw, &best)
		}
	}
	if best > bound {
		return graph.Infinity
	}
	return best
}

// bidiExpand settles the next vertex of ws and relaxes its alive effective
// edges, folding any meeting with the opposite search into best. Must be
// called with ov.mu read-held.
func (ov *Overlay) bidiExpand(ws, other *graph.Workspace, best *float64) {
	u, d, ok := ws.Pop()
	if !ok {
		return
	}
	ov.neighborsLocked(u, func(v graph.Vertex, w float64) bool {
		nd := d + w
		if od, labeled := other.Dist(v); labeled {
			if c := nd + od; c < *best {
				*best = c
			}
		}
		ws.Relax(v, nd, u)
		return true
	})
}
