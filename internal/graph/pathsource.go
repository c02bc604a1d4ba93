package graph

import (
	"math"

	"compactroute/internal/parallel"
)

// Row is one source row of a PathSource: the shortest-path distances and
// canonical first hops from Src to every vertex, indexed by destination id.
// Rows are immutable once produced; callers must not modify the slices. A Row
// stays valid after the producing PathSource evicts or discards it.
type Row struct {
	Src   Vertex
	Dist  []float64
	First []Vertex
}

// PathSource abstracts all-pairs shortest-path access for the centralized
// preprocessing phases. Two implementations exist:
//
//   - DenseAPSP materializes the full n x n matrices up front - O(n^2) words,
//     O(1) queries, the fast path for small graphs;
//   - LazyAPSP computes per-source rows on demand behind a sharded LRU cache
//     with a configurable memory budget, which decouples construction from
//     Theta(n^2) memory and scales to graphs where the dense matrix cannot be
//     allocated.
//
// Both are backed by the same deterministic single-source search (BFS in
// fixed port order on unit graphs, a (dist, id)-ordered heap otherwise),
// running over the graph's CSR arrays with scratch from its workspace pool,
// so Dist, First, Path and Row return bit-identical values on both
// implementations - and therefore every scheme constructed through this
// interface is independent of the implementation choice. Any third
// implementation must produce rows identical to ShortestPaths, not merely
// some shortest path. A LazyAPSP made by Carry keeps the contract: its
// shared and patched rows equal the rows a fresh search on its graph fills.
type PathSource interface {
	// N returns the number of vertices covered.
	N() int
	// Dist returns d(u, v).
	Dist(u, v Vertex) float64
	// First returns the vertex that follows u on the canonical shortest path
	// from u to v. First(u, u) == u; NoVertex if v is unreachable.
	First(u, v Vertex) Vertex
	// Path returns the canonical shortest path from u to v inclusive, or nil
	// if v is unreachable from u.
	Path(u, v Vertex) []Vertex
	// Row returns the full row of source src in one call - the bulk-access
	// path for per-source loops that would otherwise issue n point queries.
	Row(src Vertex) Row
}

// pathVia reconstructs the canonical path by following First hop by hop -
// the walk every scheme's routing phase performs, shared by both PathSource
// implementations so their Path results agree by construction.
func pathVia(ps PathSource, u, v Vertex) []Vertex {
	if math.IsInf(ps.Dist(u, v), 1) {
		return nil
	}
	path := []Vertex{u}
	for x := u; x != v; {
		x = ps.First(x, v)
		path = append(path, x)
	}
	return path
}

// EccentricityOf returns max_v d(src, v) over reachable v, computed from one
// row of ps. A single row scan is too small to split; the parallelism of the
// all-pairs statistics lives at the per-source level (Eccentricities,
// SummarizeDistances).
func EccentricityOf(ps PathSource, src Vertex) float64 {
	return rowMaxFinite(ps.Row(src).Dist)
}

// rowMaxFinite returns the maximum finite entry of dist (0 if none).
func rowMaxFinite(dist []float64) float64 {
	var ecc float64
	for _, d := range dist {
		if !math.IsInf(d, 1) && d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Eccentricities returns the eccentricity of every vertex, one source row per
// vertex, parallel across sources with each result written to its own slot.
func Eccentricities(ps PathSource) []float64 {
	n := ps.N()
	out := make([]float64, n)
	parallel.For(n, func(u int) {
		out[u] = rowMaxFinite(ps.Row(Vertex(u)).Dist)
	})
	return out
}

// DistanceSummary holds the whole-graph distance statistics computed by
// SummarizeDistances in a single pass over the source rows.
type DistanceSummary struct {
	// Ecc[u] = max_v d(u, v) over reachable v.
	Ecc []float64
	// Diameter = max_u Ecc[u].
	Diameter float64
	// NormalizedDiameter = max d(u,v) / min_{u!=v} d(u,v) over connected
	// pairs; 1 for graphs with fewer than two vertices.
	NormalizedDiameter float64
}

// SummarizeDistances computes eccentricities, diameter and normalized
// diameter visiting every source row exactly once - the cheapest way to get
// all three from a LazyAPSP, whose rows are recomputed on every visit once
// evicted. Rows are scanned on the worker pool, each source writing its own
// (ecc, min) slot, followed by a sequential index-ordered reduction, so the
// result is identical for every worker count.
func SummarizeDistances(ps PathSource) DistanceSummary {
	n := ps.N()
	s := DistanceSummary{Ecc: make([]float64, n)}
	mins := make([]float64, n)
	parallel.For(n, func(u int) {
		row := ps.Row(Vertex(u)).Dist
		mx, mn := 0.0, Infinity
		for v, d := range row {
			if v == u || math.IsInf(d, 1) {
				continue
			}
			if d > mx {
				mx = d
			}
			if d < mn {
				mn = d
			}
		}
		s.Ecc[u], mins[u] = mx, mn
	})
	minD := Infinity
	for u := 0; u < n; u++ {
		if s.Ecc[u] > s.Diameter {
			s.Diameter = s.Ecc[u]
		}
		if mins[u] < minD {
			minD = mins[u]
		}
	}
	if s.Diameter == 0 || math.IsInf(minD, 1) {
		s.NormalizedDiameter = 1
	} else {
		s.NormalizedDiameter = s.Diameter / minD
	}
	return s
}

// NormalizedDiameterOf returns D = max d(u,v) / min_{u!=v} d(u,v) over
// connected pairs, the quantity the paper's weighted-scheme space bounds are
// stated in; 1 for graphs with fewer than two vertices.
func NormalizedDiameterOf(ps PathSource) float64 {
	return SummarizeDistances(ps).NormalizedDiameter
}
