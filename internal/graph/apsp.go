package graph

import (
	"compactroute/internal/parallel"
)

// DenseAPSP holds all-pairs shortest-path information as dense matrices: the
// distance between every pair and, for every ordered pair (s, t), the first
// vertex after s on the canonical shortest path from s to t. The canonical
// path is the one produced by the deterministic tie-break of ShortestPaths,
// so repeated walks always follow the same path.
//
// The preprocessing phases of every scheme in the paper are centralized
// (Section 1: "a centralized algorithm computes routing tables"), so holding
// the full matrices during construction is faithful to the model; the
// per-vertex routing tables handed to the simulator never reference the
// matrices. DenseAPSP is the small-n fast path of the PathSource interface -
// O(n^2) words of memory bought once for O(1) queries; use LazyAPSP when the
// matrix does not fit.
type DenseAPSP struct {
	n     int
	dist  []float64
	first []Vertex
}

// APSP is the historical name of DenseAPSP, kept for existing callers.
type APSP = DenseAPSP

var _ PathSource = (*DenseAPSP)(nil)

// AllPairs computes APSP by running a single-source search from every vertex,
// parallelized across cores. Each search writes its matrix row in place
// through a pooled workspace, so beyond the two matrices the computation
// allocates nothing per source.
func AllPairs(g *Graph) *DenseAPSP {
	n := g.N()
	a := &DenseAPSP{
		n:     n,
		dist:  make([]float64, n*n),
		first: make([]Vertex, n*n),
	}
	parallel.For(n, func(src int) {
		ws := g.AcquireWorkspace()
		g.searchInto(ws, Vertex(src), a.dist[src*n:(src+1)*n], nil, a.first[src*n:(src+1)*n])
		g.ReleaseWorkspace(ws)
	})
	return a
}

// N returns the number of vertices covered by the matrix.
func (a *DenseAPSP) N() int { return a.n }

// Dist returns d(u, v).
func (a *DenseAPSP) Dist(u, v Vertex) float64 { return a.dist[int(u)*a.n+int(v)] }

// First returns the vertex that follows u on the canonical shortest path
// from u to v. First(u, u) == u; it returns NoVertex if v is unreachable.
func (a *DenseAPSP) First(u, v Vertex) Vertex { return a.first[int(u)*a.n+int(v)] }

// Row returns the matrix row of src: full-width views of the two matrices.
func (a *DenseAPSP) Row(src Vertex) Row {
	lo, hi := int(src)*a.n, (int(src)+1)*a.n
	return Row{Src: src, dist64: a.dist[lo:hi:hi], first32: a.first[lo:hi:hi]}
}

// Path returns the canonical shortest path from u to v inclusive, or nil if
// v is unreachable from u.
func (a *DenseAPSP) Path(u, v Vertex) []Vertex { return pathVia(a, u, v) }

// Eccentricity returns max_v d(u, v) over reachable v. A single row scan is
// too small to parallelize; the all-sources loops (Eccentricities,
// SummarizeDistances) carry the parallelism.
func (a *DenseAPSP) Eccentricity(u Vertex) float64 {
	return rowMaxFinite(a.Row(u), a.n)
}

// NormalizedDiameter returns D = max d(u,v) / min_{u!=v} d(u,v) over
// connected pairs, the quantity the paper's weighted-scheme space bounds are
// stated in. It returns 1 for graphs with fewer than two vertices. Rows are
// scanned on the worker pool and reduced in index order (SummarizeDistances).
func (a *DenseAPSP) NormalizedDiameter() float64 {
	return NormalizedDiameterOf(a)
}
