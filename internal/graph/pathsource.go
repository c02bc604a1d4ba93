package graph

import (
	"math"
	"slices"

	"compactroute/internal/parallel"
)

// Row is one source row of a PathSource: the shortest-path distances and
// canonical first hops from Src to every vertex, read by destination id
// through Dist and First. Rows are immutable once produced. A Row stays valid
// after the producing PathSource evicts or discards it.
//
// A LazyAPSP row is stored at the narrowest width that gives every value
// back exactly, picked from the row's own values and the vertex count:
// distances as uint16 when every finite one is a whole number at most 65534
// (rowNone reads +Inf), else float64; first hops as uint16 when n <= 65535
// (rowNone reads NoVertex), else int32. Exactly one slice of each pair is
// set. DenseAPSP rows are float64/int32 views of its matrices.
type Row struct {
	Src     Vertex
	dist16  []uint16
	dist64  []float64
	first16 []uint16
	first32 []Vertex
}

// rowNone is the narrow encoding of +Inf among distances and of NoVertex
// among first hops.
const rowNone = math.MaxUint16

// Dist returns d(Src, v).
func (r Row) Dist(v Vertex) float64 {
	if r.dist16 != nil {
		if x := r.dist16[v]; x != rowNone {
			return float64(x)
		}
		return math.Inf(1)
	}
	return r.dist64[v]
}

// First returns the vertex that follows Src on the canonical shortest path
// to v: Src itself for v == Src, NoVertex if v is unreachable.
func (r Row) First(v Vertex) Vertex {
	if r.first16 != nil {
		if x := r.first16[v]; x != rowNone {
			return Vertex(x)
		}
		return NoVertex
	}
	return r.first32[v]
}

// setFirst sets the first hop to v in a row under construction.
func (r Row) setFirst(v, f Vertex) {
	if r.first16 != nil {
		r.first16[v] = uint16(f) // NoVertex (-1) wraps to rowNone
	} else {
		r.first32[v] = f
	}
}

// widenDist writes the row's distances into the full-width dist.
func (r Row) widenDist(dist []float64) {
	if r.dist16 == nil {
		copy(dist, r.dist64)
		return
	}
	dist = dist[:len(r.dist16)]
	for v, x := range r.dist16 {
		if x != rowNone {
			dist[v] = float64(x)
		} else {
			dist[v] = math.Inf(1)
		}
	}
}

// narrow16 returns the 16-bit form of distance x and whether x has one: a
// whole number below rowNone, which converts back to the same float64 bits,
// or +Inf.
func narrow16(x float64) (uint16, bool) {
	u := uint16(x)
	if math.Float64bits(float64(u)) == math.Float64bits(x) && u != rowNone {
		return u, true
	}
	return rowNone, math.IsInf(x, 1)
}

// narrowDist returns the full-width distances of a row at the narrowest
// width that gives every value back exactly: one of the two results is nil.
// It checks the width before allocating, so a wide row allocates only its
// float64 copy.
func narrowDist(dist []float64) ([]uint16, []float64) {
	for _, x := range dist {
		if _, ok := narrow16(x); !ok {
			return nil, slices.Clone(dist)
		}
	}
	d16 := make([]uint16, len(dist))
	for v, x := range dist {
		d16[v], _ = narrow16(x)
	}
	return d16, nil
}

// patchDist returns the distances of a patched copy of r whose full-width
// values are nd, where only the entries listed in orphans and pushed can
// differ from r's. A narrow r is copied and re-encoded on those entries
// alone, unless one of them no longer fits.
func (r Row) patchDist(nd []float64, orphans, pushed []Vertex) ([]uint16, []float64) {
	if r.dist16 == nil {
		return narrowDist(nd)
	}
	d16 := slices.Clone(r.dist16)
	for _, vs := range [2][]Vertex{orphans, pushed} {
		for _, v := range vs {
			u, ok := narrow16(nd[v])
			if !ok {
				return nil, slices.Clone(nd)
			}
			d16[v] = u
		}
	}
	return d16, nil
}

// narrowRow copies the full-width row of src held in scratch into the
// narrowest retained slices that give every value back exactly.
func narrowRow(src Vertex, dist []float64, first []Vertex) Row {
	r := Row{Src: src}
	r.dist16, r.dist64 = narrowDist(dist)
	if len(first) <= rowNone {
		// Ids stay below rowNone, and NoVertex (-1) wraps to it.
		r.first16 = make([]uint16, len(first))
		for v, x := range first {
			r.first16[v] = uint16(x)
		}
	} else {
		r.first32 = slices.Clone(first)
	}
	return r
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
	return rowMaxFinite(ps.Row(src), ps.N())
}

// rowMaxFinite returns the maximum finite distance of the n-entry row (0 if
// none).
func rowMaxFinite(row Row, n int) float64 {
	var ecc float64
	for v := 0; v < n; v++ {
		if d := row.Dist(Vertex(v)); !math.IsInf(d, 1) && d > ecc {
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
		out[u] = rowMaxFinite(ps.Row(Vertex(u)), n)
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
		row := ps.Row(Vertex(u))
		mx, mn := 0.0, Infinity
		for v := 0; v < n; v++ {
			d := row.Dist(Vertex(v))
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
