package core

import (
	"fmt"
	"math"

	"compactroute/internal/graph"
	"compactroute/internal/vicinity"
)

// exitEdge finds the edge (y, z) on the canonical shortest path from x to v
// such that y is in B(x) and z is not - the edge both sequence constructions
// of Section 3 pivot on. Membership along a shortest path is a prefix
// (distances strictly increase and vicinities are closed under "closer in
// (dist, id) order"), so a forward walk finds it.
//
// Preconditions: v is not in B(x) and v is reachable from x.
func exitEdge(paths graph.PathSource, vic *vicinity.Set, x, v graph.Vertex) (y, z graph.Vertex, err error) {
	if vic.Contains(v) {
		return graph.NoVertex, graph.NoVertex, fmt.Errorf("core: exitEdge called with %d inside B(%d)", v, x)
	}
	y = x
	for {
		z = paths.First(y, v)
		if z == graph.NoVertex || z == y {
			return graph.NoVertex, graph.NoVertex, fmt.Errorf("core: no path from %d to %d", x, v)
		}
		if !vic.Contains(z) {
			return y, z, nil
		}
		y = z
	}
}

// forwardToward returns the port on which a packet at `at` should leave to
// make progress toward the waypoint target, using the vicinity first-hop
// table (Lemma 2) when the target is in B(at), or the direct link otherwise.
// By construction of the sequences one of the two always applies: Property 1
// keeps a waypoint inside the vicinities of every intermediate vertex.
func forwardToward(g *graph.Graph, vics []*vicinity.Set, at, target graph.Vertex) (graph.Port, error) {
	if first, ok := vics[at].FirstHop(target); ok {
		p := g.PortTo(at, first)
		if p == graph.NoPort {
			return graph.NoPort, fmt.Errorf("core: vicinity first hop %d of %d is not a neighbor", first, at)
		}
		return p, nil
	}
	if p := g.PortTo(at, target); p != graph.NoPort {
		return p, nil
	}
	return graph.NoPort, fmt.Errorf("core: waypoint %d is neither in B(%d) nor adjacent to it", target, at)
}

// minEdgeWeight returns the smallest edge weight of g. The minimum-weight
// edge is itself a shortest path, so this equals the paper's omega_min over
// shortest-path edges E' and serves as the unit for the doubling thresholds
// of Lemma 8.
func minEdgeWeight(g *graph.Graph) float64 {
	minW := math.Inf(1)
	for u := 0; u < g.N(); u++ {
		g.Neighbors(graph.Vertex(u), func(_ graph.Port, _ graph.Vertex, w float64) bool {
			if w < minW {
				minW = w
			}
			return true
		})
	}
	if math.IsInf(minW, 1) {
		return 1
	}
	return minW
}

// maxBudget caps b, so that b+1 (Lemma 8) and the 2b+4 round cap of
// Lemma 7 stay far from wrapping an int.
const maxBudget = math.MaxInt32

// budget returns b = ceil(2/eps), the per-sequence round budget of Lemma 7.
// eps must be finite and positive with b <= maxBudget: a NaN or infinite
// eps makes every stretch bound NaN or +Inf, which no route can exceed, and
// a tiny one wraps when ceil(2/eps) converts to an int.
func budget(eps float64) (int, error) {
	if !(eps > 0) || math.IsInf(eps, 1) || math.Ceil(2/eps) > maxBudget {
		return 0, fmt.Errorf("core: need a finite eps > 0 with ceil(2/eps) <= %d, got %v", maxBudget, eps)
	}
	return int(math.Ceil(2 / eps)), nil
}
