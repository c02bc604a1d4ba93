package compactroute

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/scheme5"
	"compactroute/internal/serve"
	"compactroute/internal/wire"
)

// Live serving re-exports: the churn-tolerant generation manager of
// internal/serve and the edge-delta machinery of internal/live behind it.
type (
	// LiveEngine is the serving engine: it answers route queries for one
	// preprocessed scheme from many workers at once, keeps serving
	// statistics, and keeps answering while the graph churns underneath
	// the scheme - an edge-delta overlay records updates, an
	// overlay-patched router finishes any route that meets a dead edge
	// with one exact search from there, and a background rebuild hot-swaps
	// in a fresh generation with an RCU-style pointer flip. A static scheme
	// is served by an engine whose overlay never changes.
	LiveEngine = serve.Live
	// LiveServeOptions configures a LiveEngine (workers, verification,
	// the rebuild constructor, observability).
	LiveServeOptions = serve.LiveOptions
	// LiveStats extends the serving statistics with churn counters:
	// overlay breakdown, dead-edge hits, fallbacks, measured staleness
	// stretch, rebuilds and swaps.
	LiveStats = serve.LiveStats
	// LiveResult is the outcome of one overlay-patched route.
	LiveResult = live.Result
	// BuildFunc preprocesses a scheme for a (churned) graph; the live
	// engine calls it from the background rebuild goroutine.
	BuildFunc = serve.BuildFunc
	// RepairFunc incrementally repairs the serving scheme for the effective
	// graph instead of rebuilding it from scratch; the result must be
	// bit-identical to a full rebuild or error out. (*LiveEngine).Refresh
	// tries it on every overlay, whatever its size, and escalates to a full
	// rebuild when it errors.
	RepairFunc = serve.RepairFunc
	// RepairInfo is the dirty-set footprint of one incremental repair.
	RepairInfo = serve.RepairInfo
	// EdgeUpdate is one edge mutation (weight change, insertion, deletion).
	EdgeUpdate = live.Update
	// EdgeOverlay is the edge-delta overlay over an immutable base graph.
	EdgeOverlay = live.Overlay
	// OverlayBreakdown classifies overlay entries (deleted / inserted /
	// reweighted).
	OverlayBreakdown = live.Breakdown
)

// SetEdgeWeight returns the update that changes the weight of {u, v} to w.
func SetEdgeWeight(u, v Vertex, w float64) EdgeUpdate { return live.SetWeight(u, v, w) }

// InsertEdge returns the update that inserts the edge {u, v} with weight w.
func InsertEdge(u, v Vertex, w float64) EdgeUpdate { return live.AddEdge(u, v, w) }

// RemoveEdge returns the update that deletes the edge {u, v}.
func RemoveEdge(u, v Vertex) EdgeUpdate { return live.DelEdge(u, v) }

// ServeLive wraps a preprocessed scheme in the serving engine. Serve queries
// with Query/Route; apply churn with (*LiveEngine).ApplyUpdates, rebuild and
// hot-swap with Rebuild/RebuildAsync (LiveServeOptions.Build supplies the
// constructor), read staleness-aware statistics with Stats, and Close the
// engine when done.
func ServeLive(s Scheme, o LiveServeOptions) (*LiveEngine, error) {
	return serve.NewLive(s, o)
}

// DeletionTrace builds a deterministic churn trace that deletes ~frac of
// g's edges while keeping the graph connected - the reproducible workload
// of the -churn benchmark mode and the CI soak.
func DeletionTrace(g *Graph, frac float64, seed int64) []EdgeUpdate {
	return live.DeletionTrace(g, frac, seed)
}

// ChurnTrace builds a deterministic mixed churn trace (deletions, weight
// changes, insertions) of the given length.
func ChurnTrace(g *Graph, ops int, seed int64, maxWeight int) []EdgeUpdate {
	return live.ChurnTrace(g, ops, seed, maxWeight)
}

// SaveLiveState writes the full serving state of a live engine - the
// current generation's scheme snapshot plus the overlay journal - so a
// churned serving process can be restored exactly (scheme, delta and
// update version) by LoadLiveState. The scheme of the current generation
// must be snapshot-capable.
func SaveLiveState(w io.Writer, l *LiveEngine) error {
	s := l.Scheme()
	es, ok := s.(wire.Encodable)
	if !ok {
		return fmt.Errorf("compactroute: scheme %s (%T) has no snapshot support", s.Name(), s)
	}
	g := s.Graph()
	snap := wire.New(es.WireKind(), g.Fingerprint())
	wire.EncodeGraph(snap, g)
	if err := es.EncodeSnapshot(snap); err != nil {
		return fmt.Errorf("compactroute: encode %s snapshot: %w", s.Name(), err)
	}
	live.EncodeOverlay(snap, l.Overlay())
	if _, err := snap.WriteTo(w); err != nil {
		return fmt.Errorf("compactroute: write live snapshot: %w", err)
	}
	return nil
}

// LoadLiveState restores a live engine from a snapshot written by
// SaveLiveState: the scheme is decoded as usual, the overlay journal is
// replayed over its graph, and a fresh engine is started around both. A
// snapshot without an overlay journal (written by SaveScheme) loads as a
// clean live engine.
func LoadLiveState(r io.Reader, o LiveServeOptions) (*LiveEngine, error) {
	t0 := time.Now()
	snap, err := wire.Read(r)
	if err != nil {
		return nil, err
	}
	s, ov, err := decodeLiveState(snap, wire.LoadEvent{Parse: time.Since(t0)})
	if err != nil {
		return nil, err
	}
	return serve.NewLiveWithOverlay(s, ov, o)
}

// decodeLiveState decodes a parsed live-state snapshot - the scheme, reported
// to the snapshot load observer like every scheme load, and its overlay
// journal, or a fresh overlay when the snapshot carries none.
func decodeLiveState(snap *wire.Snapshot, ev wire.LoadEvent) (Scheme, *live.Overlay, error) {
	s, err := decodeLoad(snap, ev)
	if err != nil {
		return nil, nil, err
	}
	if !live.HasOverlay(snap) {
		return s, live.NewOverlay(s.Graph()), nil
	}
	ov, err := live.DecodeOverlay(snap, s.Graph())
	if err != nil {
		return nil, nil, err
	}
	return s, ov, nil
}

// SaveLiveStateFile is SaveLiveState into a file created (truncated) at
// path.
func SaveLiveStateFile(path string, l *LiveEngine) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveLiveState(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadLiveStateFile is LoadLiveState from the file at path.
func LoadLiveStateFile(path string, o LiveServeOptions) (*LiveEngine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := LoadLiveState(f, o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// OpenLiveStateFile restores a live engine over a memory-mapped snapshot:
// the initial generation serves straight off the mapping (zero-copy aliased
// tables, pages shared across processes), and the engine munmaps it
// automatically - via the RCU generation refcount - once a rebuild has
// swapped in a fresh heap generation and every in-flight query on the
// mapped one has drained. Any Retire hook already set in o is replaced.
func OpenLiveStateFile(path string, o LiveServeOptions) (*LiveEngine, error) {
	t0 := time.Now()
	m, err := wire.Map(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*LiveEngine, error) {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t1 := time.Now()
	snap, err := wire.Parse(m.Bytes())
	if err != nil {
		return fail(err)
	}
	s, ov, err := decodeLiveState(snap, mappedLoad(m, t0, t1))
	if err != nil {
		return fail(err)
	}
	o.Retire = func() { m.Close() }
	l, err := serve.NewLiveWithOverlay(s, ov, o)
	if err != nil {
		return fail(err)
	}
	return l, nil
}

// lazyBuild is the default rebuild constructor factory used by the CLIs:
// it reconstructs the same scheme family with a lazy path source.
func lazyBuild(construct func(g *Graph, ps PathSource) (Scheme, error), budgetMiB int) BuildFunc {
	return func(g *graph.Graph) (Scheme, error) {
		return construct(g, NewLazyAPSP(g, int64(budgetMiB)<<20))
	}
}

// RebuildFuncFor returns a BuildFunc that reconstructs the scheme family of
// the given snapshot kind (see SnapshotKinds) on a churned graph, with the
// given construction options and a lazy path source bounded by budgetMiB.
// It returns an error for kinds with no registered rebuild recipe.
func RebuildFuncFor(kind string, o Options, budgetMiB int) (BuildFunc, error) {
	switch kind {
	case "exact/v2":
		return lazyBuild(func(g *Graph, _ PathSource) (Scheme, error) { return NewExact(g) }, budgetMiB), nil
	case "tzroute/v2":
		return lazyBuild(func(g *Graph, _ PathSource) (Scheme, error) { return NewThorupZwick(g, o) }, budgetMiB), nil
	case "thm10/v2":
		return lazyBuild(func(g *Graph, ps PathSource) (Scheme, error) { return NewTheorem10(g, ps, o) }, budgetMiB), nil
	case "thm11/v2":
		return lazyBuild(func(g *Graph, ps PathSource) (Scheme, error) { return NewTheorem11(g, ps, o) }, budgetMiB), nil
	default:
		return nil, fmt.Errorf("compactroute: no rebuild recipe for scheme kind %q", kind)
	}
}

// RepairFuncFor returns a coupled (build, repair) pair for scheme kinds
// with an incremental repair path - currently the Theorem 11 scheme. The
// two share repair state behind the scenes: the BuildFunc records the
// construction-time touch index alongside the scheme, and the RepairFunc
// repairs the most recently built scheme in place (dirty-set invalidation,
// bit-identical output). Repairing a scheme the pair did not build - e.g.
// one decoded from a snapshot, which carries no repair state - fails, and
// the live engine escalates to a full rebuild (which re-arms repair for
// every later delta). Use the returned functions as LiveServeOptions.Build
// and .Repair of the same engine.
//
// The pair also keeps the shortest-path rows of the last generation: both a
// repair and an escalation rebuild start from that cache carried onto the
// new graph (graph.LazyAPSP.Carry), which shares every row the updates
// cannot have changed and patches the rest, instead of refilling each row
// the construction reads from scratch. A generation decoded from a snapshot
// has no cache, so the first build after loading one starts cold.
func RepairFuncFor(kind string, o Options, budgetMiB int) (BuildFunc, RepairFunc, error) {
	switch kind {
	case "thm11/v2":
	default:
		return nil, nil, fmt.Errorf("compactroute: no repair recipe for scheme kind %q", kind)
	}
	params := scheme5.Params{Eps: o.eps(), VicinityFactor: o.VicinityFactor, Seed: o.Seed}
	var (
		mu   sync.Mutex
		cur  *scheme5.Repairable
		rows *graph.LazyAPSP // the last generation's cache, nil before the first build
	)
	// carry returns a cache over g that starts from the last one's rows and
	// becomes the one the next generation carries.
	carry := func(g *graph.Graph) *graph.LazyAPSP {
		mu.Lock()
		defer mu.Unlock()
		if rows == nil {
			rows = NewLazyAPSP(g, int64(budgetMiB)<<20)
		} else {
			rows = rows.Carry(g)
		}
		return rows
	}
	build := func(g *graph.Graph) (Scheme, error) {
		r, err := scheme5.NewRepairable(g, carry(g), params)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		cur = r
		mu.Unlock()
		return r.Scheme(), nil
	}
	repair := func(old Scheme, g *graph.Graph, entries []live.Entry) (Scheme, RepairInfo, error) {
		var info RepairInfo
		mu.Lock()
		r := cur
		mu.Unlock()
		if r == nil || old != Scheme(r.Scheme()) {
			return nil, info, fmt.Errorf("compactroute: %w for the serving scheme", scheme5.ErrNotRepairable)
		}
		edges := make([][2]graph.Vertex, len(entries))
		for i, e := range entries {
			edges[i] = [2]graph.Vertex{e.U, e.V}
		}
		paths := carry(g)
		next, st, err := r.Repair(g, paths, edges)
		if err != nil {
			return nil, info, err
		}
		mu.Lock()
		cur = next
		mu.Unlock()
		ps := paths.Stats()
		info = RepairInfo{Edges: st.Edges, DirtyVics: st.DirtyVics, ChangedVics: st.ChangedVics,
			DirtyClusters: st.DirtyClusters, DirtySeqs: st.DirtySeqs, DirtyLabels: st.DirtyLabels,
			PatchedRows: int(ps.PatchedRows), RowSearches: int(ps.Misses)}
		return next.Scheme(), info, nil
	}
	return build, repair, nil
}
