// Package compactroute is a from-scratch Go implementation of the compact
// routing schemes of Roditty and Tov, "New routing techniques and their
// applications" (PODC 2015, arXiv:1407.6730), together with the substrates
// they stand on (vertex vicinities, hitting sets, Lemma 6 colorings,
// Thorup-Zwick bunches/clusters, tree routing) and the baselines they are
// measured against (Thorup-Zwick compact routing and distance oracles,
// exact routing).
//
// The package exposes:
//
//   - graph construction and deterministic synthetic generators;
//   - one constructor per routing scheme of the paper (the warm-up 3+eps
//     scheme and Theorems 10, 11, 13, 15 and 16) and per baseline;
//   - a hop-by-hop network simulator in the fixed-port model and a
//     concurrent goroutine-per-vertex realization;
//   - an evaluation harness that routes sampled pairs, verifies the proved
//     stretch bound of every delivery, and accounts routing-table, label
//     and header sizes in words - the measurements behind the reproduction
//     of the paper's Table 1 (see EXPERIMENTS.md).
//
// Quick start (build and route):
//
//	g, _ := compactroute.GNM(1000, 6000, 1, false, 0)
//	apsp := compactroute.AllPairs(g)
//	scheme, _ := compactroute.NewTheorem11(g, apsp, compactroute.Options{Eps: 0.25})
//	nw := compactroute.NewNetwork(scheme)
//	res, _ := nw.Route(3, 977)
//	fmt.Println(res.Hops, res.Weight)
//
// Save, load and serve: a preprocessed scheme can be persisted as a
// versioned binary snapshot (graph + every table, sequence and label) and
// served in another process without rebuilding - the loaded scheme makes
// bit-identical routing decisions. The serving engine shards queries across
// workers and keeps live statistics (QPS, hop quantiles, stretch histogram,
// bound violations):
//
//	_ = compactroute.SaveSchemeFile("thm11.snap", scheme)     // build process
//
//	eng, _ := compactroute.OpenLiveStateFile("thm11.snap",    // serving process
//		compactroute.LiveServeOptions{Workers: 8})
//	defer eng.Close()
//	out := eng.Query(compactroute.SamplePairs(1000, 4096, 7), nil)
//	fmt.Println(out[0].Hops, eng.Stats().QPS)
//
// cmd/routebench -save/-load writes and replays snapshots for the Table 1
// rows; cmd/routeserve serves a snapshot over a line/JSON protocol and
// contains the closed-loop load generator behind experiment E13.
//
// Live serving under churn: the same engine (ServeLive wraps an in-memory
// scheme) keeps answering while the graph changes underneath it. Edge updates
// (ApplyUpdates) accumulate in a delta overlay; routes detour around dead
// edges with bounded local search (falling back to one exact search) and
// report measured staleness stretch; Rebuild preprocesses a fresh scheme
// for the churned graph in the background and hot-swaps it without
// blocking a query:
//
//	lv, _ := compactroute.ServeLive(scheme, compactroute.LiveServeOptions{
//		Verify: true, Build: build})
//	_ = lv.ApplyUpdates([]compactroute.EdgeUpdate{compactroute.RemoveEdge(3, 41)})
//	res := lv.Route(3, 977)            // detours around the dead edge
//	_ = lv.Rebuild()                   // background rebuild + atomic hot-swap
//
// cmd/routeserve -live exposes the same over the line protocol (addedge /
// deledge / setw / rebuild); cmd/routebench -churn replays a deterministic
// churn trace end to end (experiment E14).
package compactroute

import (
	"fmt"

	"compactroute/internal/exact"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/nameind"
	"compactroute/internal/netsim"
	"compactroute/internal/oracle"
	"compactroute/internal/parallel"
	"compactroute/internal/scheme2"
	"compactroute/internal/scheme3"
	"compactroute/internal/scheme4k"
	"compactroute/internal/scheme5"
	"compactroute/internal/schemegl"
	"compactroute/internal/simnet"
	"compactroute/internal/space"
	"compactroute/internal/tzroute"
)

// Core model types, re-exported for users of the public API.
type (
	// Graph is an immutable undirected graph in the fixed-port model.
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// Vertex identifies a vertex (dense ids in [0, N)).
	Vertex = graph.Vertex
	// Port identifies a link at a vertex.
	Port = graph.Port
	// PathSource abstracts the all-pairs shortest-path access the
	// preprocessing phases consume: dense matrices (DenseAPSP) or on-demand
	// per-source rows behind a bounded cache (LazyAPSP). Both produce
	// bit-identical answers; they trade memory against recomputation.
	PathSource = graph.PathSource
	// DenseAPSP materializes the full n x n matrices: O(n^2) words, O(1)
	// queries - the fast path for small graphs.
	DenseAPSP = graph.DenseAPSP
	// LazyAPSP computes per-source rows on demand behind a sharded LRU cache
	// with a configurable memory budget - the construction path for graphs
	// where the dense matrices cannot be allocated.
	LazyAPSP = graph.LazyAPSP
	// LazyStats is a snapshot of a LazyAPSP's cache counters.
	LazyStats = graph.LazyStats
	// DistanceSummary bundles eccentricities, diameter and normalized
	// diameter, computed in one pass over the source rows.
	DistanceSummary = graph.DistanceSummary
	// APSP is the historical name of DenseAPSP.
	APSP = graph.DenseAPSP
	// Scheme is the common interface of all routing schemes.
	Scheme = simnet.Scheme
	// Network executes packets of one Scheme hop by hop.
	Network = simnet.Network
	// Result describes one completed routing.
	Result = simnet.Result
	// ConcurrentNetwork runs a scheme with one goroutine per vertex.
	ConcurrentNetwork = netsim.Network
	// Delivery reports one message routed by a ConcurrentNetwork.
	Delivery = netsim.Delivery
	// Oracle is the Thorup-Zwick (2k-1)-stretch distance oracle baseline.
	Oracle = oracle.Oracle
	// SpaceStats summarizes per-vertex storage in words.
	SpaceStats = space.Stats
)

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// AllPairs computes the dense all-pairs shortest-path matrices the
// preprocessing phases consume: Theta(n^2) words bought once for O(1)
// queries. For graphs where that matrix does not fit, use NewLazyAPSP.
func AllPairs(g *Graph) *DenseAPSP { return graph.AllPairs(g) }

// NewLazyAPSP wraps g in a PathSource that computes per-source shortest-path
// rows on demand and caches them in a concurrency-safe sharded LRU bounded by
// memBudget bytes (<= 0 selects a 256 MiB default). Every scheme constructed
// from it is bit-identical to one constructed from AllPairs(g); only memory
// and wall-clock time differ.
func NewLazyAPSP(g *Graph, memBudget int64) *LazyAPSP {
	return graph.NewLazyAPSP(g, graph.LazyConfig{MemBudget: memBudget})
}

// NewPathSource builds the shortest-path source named by kind: "dense" for
// AllPairs matrices, "lazy" for an on-demand row cache of budgetMiB MiB. It
// is the selection behind the -pathsource/-mem-budget CLI flags; both kinds
// yield bit-identical schemes.
func NewPathSource(g *Graph, kind string, budgetMiB int) (PathSource, error) {
	switch kind {
	case "dense":
		return AllPairs(g), nil
	case "lazy":
		return NewLazyAPSP(g, int64(budgetMiB)<<20), nil
	default:
		return nil, fmt.Errorf("compactroute: unknown path source %q (want dense or lazy)", kind)
	}
}

// Eccentricities returns max_v d(u, v) for every vertex u, computed one
// source row at a time on the worker pool.
func Eccentricities(ps PathSource) []float64 { return graph.Eccentricities(ps) }

// NormalizedDiameter returns D = max d(u,v) / min_{u!=v} d(u,v) over
// connected pairs, the quantity the paper's weighted-scheme space bounds are
// stated in.
func NormalizedDiameter(ps PathSource) float64 { return graph.NormalizedDiameterOf(ps) }

// SummarizeDistances computes eccentricities, diameter and normalized
// diameter visiting every source row exactly once - use it over separate
// Eccentricities + NormalizedDiameter calls when ps is a LazyAPSP, whose
// evicted rows are recomputed on every visit.
func SummarizeDistances(ps PathSource) DistanceSummary { return graph.SummarizeDistances(ps) }

// SetParallelism caps the worker count of every concurrent construction and
// evaluation loop in the package (AllPairs, the scheme constructors and
// EvaluateBatched's default); n <= 0 restores the GOMAXPROCS default. The
// outputs of every constructor are identical for every setting - parallelism
// only changes wall-clock time. It is not safe to call concurrently with a
// running construction.
func SetParallelism(n int) { parallel.SetLimit(n) }

// Parallelism returns the worker count currently used by the concurrent
// construction and evaluation loops.
func Parallelism() int { return parallel.Workers() }

// NewNetwork wraps a preprocessed scheme for hop-by-hop execution.
func NewNetwork(s Scheme) *Network { return simnet.NewNetwork(s) }

// NewNetworkWithPath is NewNetwork recording full vertex paths in Results.
func NewNetworkWithPath(s Scheme) *Network {
	return simnet.NewNetwork(s, simnet.WithPath())
}

// NewConcurrentNetwork starts the goroutine-per-vertex realization; callers
// must Close it.
func NewConcurrentNetwork(s Scheme) *ConcurrentNetwork { return netsim.New(s) }

// GNM generates a connected G(n, m) graph; weighted graphs draw integer
// weights uniformly from [1, maxWeight] (maxWeight <= 0 means 32).
func GNM(n, m int, seed int64, weighted bool, maxWeight int) (*Graph, error) {
	return gen.ConnectedGNM(genConfig(n, seed, weighted, maxWeight), m)
}

// Grid generates a rows x cols grid, optionally a torus.
func Grid(rows, cols int, torus bool, seed int64, weighted bool) (*Graph, error) {
	return gen.Grid(genConfig(0, seed, weighted, 0), rows, cols, torus)
}

// Hypercube generates the d-dimensional hypercube.
func Hypercube(d int, seed int64, weighted bool) (*Graph, error) {
	return gen.Hypercube(genConfig(0, seed, weighted, 0), d)
}

// PreferentialAttachment generates a skewed-degree graph on n vertices with
// k edges per arrival.
func PreferentialAttachment(n, k int, seed int64, weighted bool) (*Graph, error) {
	return gen.PreferentialAttachment(genConfig(n, seed, weighted, 0), k)
}

// Geometric generates a connected random geometric graph on n vertices.
func Geometric(n int, seed int64, weighted bool) (*Graph, error) {
	return gen.RandomGeometric(genConfig(n, seed, weighted, 0), 2.5)
}

func genConfig(n int, seed int64, weighted bool, maxWeight int) gen.Config {
	cfg := gen.Config{N: n, Seed: seed, Weighting: gen.Unit}
	if weighted {
		cfg.Weighting = gen.UniformInt
		cfg.MaxWeight = maxWeight
	}
	return cfg
}

// Options configures scheme construction. Zero values select defaults
// (Eps 0.5, VicinityFactor 1.5, Seed 0); K and L parameterize Theorems
// 16 and 13/15 respectively.
type Options struct {
	Eps            float64
	VicinityFactor float64
	Seed           int64
	K              int // Theorem 16 / Thorup-Zwick levels
	L              int // Theorems 13/15 levels
}

func (o Options) eps() float64 {
	if o.Eps <= 0 {
		return 0.5
	}
	return o.Eps
}

// NewWarmup3 builds the warm-up (3+eps)-stretch scheme of Section 4
// (O~((1/eps) sqrt n) tables, weighted graphs).
func NewWarmup3(g *Graph, ps PathSource, o Options) (Scheme, error) {
	return scheme3.New(g, ps, scheme3.Params{Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed})
}

// NewTheorem10 builds the (2+eps, 1)-stretch scheme of Theorem 10
// (O~((1/eps) n^{2/3}) tables, unweighted graphs).
func NewTheorem10(g *Graph, ps PathSource, o Options) (Scheme, error) {
	return scheme2.New(g, ps, scheme2.Params{Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed})
}

// NewTheorem11 builds the (5+eps)-stretch scheme of Theorem 11
// (O~((1/eps) n^{1/3} log D) tables, weighted graphs) - the paper's
// headline result.
func NewTheorem11(g *Graph, ps PathSource, o Options) (Scheme, error) {
	return scheme5.New(g, ps, scheme5.Params{Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed})
}

// NewTheorem13 builds the (3-2/l+eps, 2)-stretch scheme of Theorem 13
// (O~(l (1/eps) n^{l/(2l-1)}) tables, unweighted graphs). Options.L
// defaults to 2.
func NewTheorem13(g *Graph, ps PathSource, o Options) (Scheme, error) {
	l := o.L
	if l == 0 {
		l = 2
	}
	return schemegl.New(g, ps, schemegl.Params{
		L: l, Variant: schemegl.Minus, Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed,
	})
}

// NewTheorem15 builds the (3+2/l+eps, 2)-stretch scheme of Theorem 15
// (O~(l (1/eps) n^{l/(2l+1)}) tables, unweighted graphs). Options.L
// defaults to 2.
func NewTheorem15(g *Graph, ps PathSource, o Options) (Scheme, error) {
	l := o.L
	if l == 0 {
		l = 2
	}
	return schemegl.New(g, ps, schemegl.Params{
		L: l, Variant: schemegl.Plus, Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed,
	})
}

// NewTheorem16 builds the (4k-7+eps)-stretch scheme of Theorem 16
// (O~((1/eps) n^{1/k} log D) tables, weighted graphs). Options.K defaults
// to 4 (stretch 9+eps, the Table 1 row).
func NewTheorem16(g *Graph, ps PathSource, o Options) (Scheme, error) {
	k := o.K
	if k == 0 {
		k = 4
	}
	return scheme4k.New(g, ps, scheme4k.Params{
		K: k, Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed,
	})
}

// NewNameIndependent builds the name-independent extension the paper
// sketches in Section 1 (technique 1 plus the hashing of Abraham et al.):
// routing needs only the destination's vertex id, no label at all, with
// O~(sqrt(n)/eps) tables. This implementation's provable bound is (7+4eps)d;
// see the package comment of internal/nameind for why the sketched 3+eps
// needs the full Abraham et al. machinery.
func NewNameIndependent(g *Graph, ps PathSource, o Options) (Scheme, error) {
	return nameind.New(g, ps, nameind.Params{Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed})
}

// NewThorupZwick builds the (4k-5)-stretch Thorup-Zwick baseline.
// Options.K defaults to 2 (stretch 3).
func NewThorupZwick(g *Graph, o Options) (Scheme, error) {
	k := o.K
	if k == 0 {
		k = 2
	}
	return tzroute.New(g, tzroute.Params{K: k, Seed: o.Seed})
}

// NewExact builds the full-table stretch-1 baseline.
func NewExact(g *Graph) (Scheme, error) { return exact.New(g) }

// NewOracle builds the Thorup-Zwick (2k-1)-stretch distance oracle.
func NewOracle(g *Graph, k int, seed int64) (*Oracle, error) {
	return oracle.New(g, k, seed)
}

// Tallied is implemented by schemes that expose a storage breakdown.
type Tallied interface {
	Tally() *space.Tally
}

// TableBreakdown returns the named per-component storage stats of a scheme,
// or nil if the scheme does not expose one.
func TableBreakdown(s Scheme) map[string]SpaceStats {
	t, ok := s.(Tallied)
	if !ok {
		return nil
	}
	out := make(map[string]SpaceStats)
	for _, part := range t.Tally().Parts() {
		out[part] = t.Tally().PartStats(part)
	}
	return out
}

// FitExponent estimates the growth exponent of ys against xs on a log-log
// scale (used by the space-scaling experiment E2).
func FitExponent(xs, ys []float64) float64 { return space.FitExponent(xs, ys) }
