// Package live is the dynamic-graph layer of the serving stack: it keeps
// route answers correct-enough while the network drifts away from the graph
// a scheme was preprocessed for, until a background rebuild catches up.
//
// The paper's schemes (and every scheme in this repository) are built in a
// centralized preprocessing phase over an immutable graph. Real networks
// churn: links fail, recover and change cost continuously. This package
// models churn as an edge-delta Overlay over the immutable base graph - an
// absolute statement of the current state of every touched edge - plus a
// Router that executes a preprocessed scheme hop by hop against the
// overlay: scheme decisions are taken while their edges are alive, and the
// first one that chooses a dead edge ends the scheme walk there - the
// abandon point - from which an exact shortest path finishes the route: read
// from a shortest-path tree the overlay keeps for abandon points that fall
// back often, or found by a bidirectional search. Routes stay finite;
// the proved stretch bound is traded for a *measured* staleness stretch
// (weight over the true distance in the churned graph, see
// Overlay.BoundedBidiDist).
//
// The generation manager that serves queries from one scheme while a
// background goroutine rebuilds the next one from base+overlay - and then
// hot-swaps it without blocking a single query - lives in internal/serve
// (serve.Live); this package owns the graph-level machinery it is built on.
package live

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"compactroute/internal/graph"
)

// Op identifies one kind of edge update.
type Op uint8

const (
	// OpSetWeight changes the weight of an existing edge.
	OpSetWeight Op = iota + 1
	// OpAddEdge inserts an edge that does not currently exist.
	OpAddEdge
	// OpDelEdge removes an existing edge.
	OpDelEdge
)

// String names the operation as it appears in traces and admin protocols.
func (o Op) String() string {
	switch o {
	case OpSetWeight:
		return "setw"
	case OpAddEdge:
		return "addedge"
	case OpDelEdge:
		return "deledge"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Update is one edge mutation of a churn trace.
type Update struct {
	Op   Op
	U, V graph.Vertex
	W    float64 // OpSetWeight / OpAddEdge only
}

// SetWeight returns the update that changes the weight of edge {u, v} to w.
func SetWeight(u, v graph.Vertex, w float64) Update {
	return Update{Op: OpSetWeight, U: u, V: v, W: w}
}

// AddEdge returns the update that inserts the edge {u, v} with weight w.
func AddEdge(u, v graph.Vertex, w float64) Update {
	return Update{Op: OpAddEdge, U: u, V: v, W: w}
}

// DelEdge returns the update that deletes the edge {u, v}.
func DelEdge(u, v graph.Vertex) Update {
	return Update{Op: OpDelEdge, U: u, V: v}
}

// edgeKey is the canonical (min, max) identity of an undirected edge.
type edgeKey struct{ u, v graph.Vertex }

func keyOf(u, v graph.Vertex) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// edgeState is the absolute current state of one touched edge: alive with
// the given weight, or dead. States are absolute (not diffs against a
// particular base), which is what makes an overlay meaningful across a
// generation swap: the same map describes the same network no matter which
// base graph a scheme was preprocessed for.
type edgeState struct {
	w     float64
	alive bool
}

// halfAdd is one inserted half-edge in a per-vertex adjacency list, kept
// sorted by neighbor id so effective adjacency merges stay in ascending
// order.
type halfAdd struct {
	v graph.Vertex
	w float64
}

// Overlay records edge churn on top of an immutable base graph. All methods
// are safe for concurrent use: reads take a shared lock, updates and Rebase
// an exclusive one, and the version and entry count are also published
// lock-free (see State). The zero value is not usable; construct with
// NewOverlay.
type Overlay struct {
	mu     sync.RWMutex
	base   *graph.Graph
	states map[edgeKey]edgeState
	added  map[graph.Vertex][]halfAdd // alive non-base edges, sorted by neighbor
	// touch is the touch index: touch[u] counts the entries of states
	// incident to u. A vertex with touch 0 has exactly its base adjacency in
	// the effective graph, so searches relax it straight from the base CSR.
	touch   []int32
	version uint64
	// pub is the (version, entry count) pair republished under mu by every
	// mutation, so per-query readers load both with one atomic read.
	pub atomic.Pointer[overlayStamp]
	// trees caches the fallback's shortest-path trees of the current
	// effective graph, one per abandon point (see chargeLocked); nil until
	// the version's first fallback, and dropped by publish. treeBuilds
	// counts the trees published. treeBudget is maxTreeBytes and treeRent
	// the vertex count, the searches' cost at which a vertex gets its tree
	// (tests lower both). hopPool holds the search workspaces of the
	// fallback, its tree builds and BoundedBidiDist.
	trees      atomic.Pointer[treeSet]
	treeBuilds atomic.Uint64
	treeBudget int
	treeRent   int
	hopPool    sync.Pool
}

type overlayStamp struct {
	version uint64
	entries int
}

// publish republishes the version and entry count and drops the version's
// fallback trees and rents, whose effective graph the caller may have just
// changed; callers hold mu for writing, and a tree build in flight sees the
// drop at its next chunk and gives up.
func (ov *Overlay) publish() {
	ov.pub.Store(&overlayStamp{version: ov.version, entries: len(ov.states)})
	ov.trees.Store(nil)
}

// NewOverlay starts an empty overlay over base: the effective graph equals
// the base graph until the first update.
func NewOverlay(base *graph.Graph) *Overlay {
	ov := &Overlay{
		base:       base,
		states:     make(map[edgeKey]edgeState),
		added:      make(map[graph.Vertex][]halfAdd),
		touch:      make([]int32, base.N()),
		treeBudget: maxTreeBytes,
		treeRent:   base.N(),
	}
	ov.hopPool.New = func() any { return newHopWorkspace(base.N()) }
	ov.publish()
	return ov
}

// Base returns the immutable graph the overlay is recorded over. It changes
// only at Rebase (a generation swap).
func (ov *Overlay) Base() *graph.Graph {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	return ov.base
}

// N returns the vertex count (churn never adds or removes vertices).
func (ov *Overlay) N() int { return ov.Base().N() }

// State returns the version and the entry count as one consistent pair,
// without taking the lock. The version only grows, and at a fixed version
// the entry count only shrinks (Rebase prunes), so a reader that sees the
// same version before and after some work knows an overlay it saw empty
// stayed empty throughout.
func (ov *Overlay) State() (version uint64, entries int) {
	st := ov.pub.Load()
	return st.version, st.entries
}

// Version returns the number of updates applied so far. It increases by one
// per successful Apply.
func (ov *Overlay) Version() uint64 { return ov.pub.Load().version }

// Len returns the number of edges whose current state differs from the base
// graph. Len() == 0 means the effective graph is exactly the base graph.
func (ov *Overlay) Len() int { return ov.pub.Load().entries }

// Empty reports whether the effective graph equals the base graph.
func (ov *Overlay) Empty() bool { return ov.Len() == 0 }

// FallbackTrees returns the number of shortest-path trees the router's
// fallback has built over the overlay's lifetime.
func (ov *Overlay) FallbackTrees() uint64 { return ov.treeBuilds.Load() }

// Breakdown classifies the overlay entries.
type Breakdown struct {
	Deleted    int // base edges currently dead
	Inserted   int // alive edges absent from the base graph
	Reweighted int // base edges alive at a different weight
}

// Breakdown returns the current entry classification.
func (ov *Overlay) Breakdown() Breakdown {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	var b Breakdown
	for k, st := range ov.states {
		switch {
		case !st.alive:
			b.Deleted++
		case ov.base.HasEdge(k.u, k.v):
			b.Reweighted++
		default:
			b.Inserted++
		}
	}
	return b
}

// Apply performs one update. It returns an error (and changes nothing) if
// the update is inconsistent with the current effective graph: deleting or
// reweighting a missing edge, inserting an existing one, a self loop, an
// out-of-range vertex or a non-positive weight.
func (ov *Overlay) Apply(up Update) error {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	n := graph.Vertex(ov.base.N())
	if up.U == up.V {
		return fmt.Errorf("live: %s {%d,%d}: self loop", up.Op, up.U, up.V)
	}
	if up.U < 0 || up.U >= n || up.V < 0 || up.V >= n {
		return fmt.Errorf("live: %s {%d,%d}: vertex out of range [0,%d)", up.Op, up.U, up.V, n)
	}
	if up.Op != OpDelEdge && (!(up.W > 0) || math.IsInf(up.W, 1) || math.IsNaN(up.W)) {
		return fmt.Errorf("live: %s {%d,%d}: invalid weight %v", up.Op, up.U, up.V, up.W)
	}
	k := keyOf(up.U, up.V)
	entry, touched := ov.states[k]
	baseW, baseErr := ov.base.EdgeWeight(k.u, k.v)
	baseHas := baseErr == nil
	exists := baseHas
	if touched {
		exists = entry.alive
	}

	switch up.Op {
	case OpDelEdge:
		if !exists {
			return fmt.Errorf("live: deledge {%d,%d}: no such edge", up.U, up.V)
		}
		if baseHas {
			ov.putState(k, edgeState{alive: false})
		} else {
			ov.dropState(k) // inserted edge removed: back to base state
			ov.dropAdded(k)
		}
	case OpAddEdge:
		if exists {
			return fmt.Errorf("live: addedge {%d,%d}: edge already exists", up.U, up.V)
		}
		ov.setAlive(k, up.W, baseHas, baseW)
	case OpSetWeight:
		if !exists {
			return fmt.Errorf("live: setw {%d,%d}: no such edge", up.U, up.V)
		}
		ov.setAlive(k, up.W, baseHas, baseW)
	default:
		return fmt.Errorf("live: unknown op %d", up.Op)
	}
	ov.version++
	ov.publish()
	return nil
}

// setAlive records edge k alive at weight w, normalizing entries that match
// the base graph away (so Empty() is exact) and maintaining the inserted
// adjacency lists.
func (ov *Overlay) setAlive(k edgeKey, w float64, baseHas bool, baseW float64) {
	if baseHas {
		if w == baseW {
			ov.dropState(k) // state equals base: drop the entry
		} else {
			ov.putState(k, edgeState{w: w, alive: true})
		}
		return
	}
	if ov.putState(k, edgeState{w: w, alive: true}) {
		ov.updateAdded(k, w)
	} else {
		ov.insertAdded(k, w)
	}
}

// putState records st as edge k's entry, counting a new entry against the
// touch index of both endpoints. It reports whether k already had an entry.
func (ov *Overlay) putState(k edgeKey, st edgeState) (had bool) {
	if _, had = ov.states[k]; !had {
		ov.touch[k.u]++
		ov.touch[k.v]++
	}
	ov.states[k] = st
	return had
}

// dropState removes edge k's entry, if any, and its touch counts.
func (ov *Overlay) dropState(k edgeKey) {
	if _, had := ov.states[k]; had {
		delete(ov.states, k)
		ov.touch[k.u]--
		ov.touch[k.v]--
	}
}

func (ov *Overlay) insertAdded(k edgeKey, w float64) {
	ov.insertHalf(k.u, k.v, w)
	ov.insertHalf(k.v, k.u, w)
}

func (ov *Overlay) insertHalf(u, v graph.Vertex, w float64) {
	list := ov.added[u]
	i := sort.Search(len(list), func(i int) bool { return list[i].v >= v })
	list = append(list, halfAdd{})
	copy(list[i+1:], list[i:])
	list[i] = halfAdd{v: v, w: w}
	ov.added[u] = list
}

func (ov *Overlay) updateAdded(k edgeKey, w float64) {
	for _, u := range [2]graph.Vertex{k.u, k.v} {
		list := ov.added[u]
		o := k.v
		if u == k.v {
			o = k.u
		}
		i := sort.Search(len(list), func(i int) bool { return list[i].v >= o })
		if i < len(list) && list[i].v == o {
			list[i].w = w
		}
	}
}

func (ov *Overlay) dropAdded(k edgeKey) {
	for _, u := range [2]graph.Vertex{k.u, k.v} {
		list := ov.added[u]
		o := k.v
		if u == k.v {
			o = k.u
		}
		i := sort.Search(len(list), func(i int) bool { return list[i].v >= o })
		if i < len(list) && list[i].v == o {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(ov.added, u)
			} else {
				ov.added[u] = list
			}
		}
	}
}

// EdgeState reports the current state of edge {u, v} in the effective
// graph: its weight and whether it is alive.
func (ov *Overlay) EdgeState(u, v graph.Vertex) (w float64, alive bool) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	return ov.edgeStateLocked(u, v)
}

// edgeStateLocked is EdgeState for callers already holding ov.mu. An
// untouched u has no entry, so its edges are read from the base graph with
// no map probe.
func (ov *Overlay) edgeStateLocked(u, v graph.Vertex) (w float64, alive bool) {
	if ov.touch[u] > 0 {
		if st, ok := ov.states[keyOf(u, v)]; ok {
			return st.w, st.alive
		}
	}
	bw, err := ov.base.EdgeWeight(u, v)
	if err != nil {
		return 0, false
	}
	return bw, true
}

// EffectiveWeight is the router's per-hop check on a patched overlay: given
// a scheme's base edge {u, v} with preprocessed weight baseW, it returns the
// edge's current weight and whether the edge is alive. Edges with no overlay
// entry are alive at baseW without consulting the base graph, and at a u no
// entry touches (touch[u] == 0) the entry map is not probed at all.
// Router.RouteInto checks Empty once per route and calls this only when the
// overlay held updates at the route's start, so a route over a clean overlay
// pays no per-hop probe.
func (ov *Overlay) EffectiveWeight(u, v graph.Vertex, baseW float64) (float64, bool) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	if ov.touch[u] == 0 {
		return baseW, true
	}
	if st, ok := ov.states[keyOf(u, v)]; ok {
		return st.w, st.alive
	}
	return baseW, true
}

// Neighbors calls fn for every alive effective edge at u in ascending
// neighbor-id order (the same iteration order as graph.Graph.Neighbors on
// the materialized graph, which is what keeps effective searches canonical).
// It stops early if fn returns false.
func (ov *Overlay) Neighbors(u graph.Vertex, fn func(v graph.Vertex, w float64) bool) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	ov.neighborsLocked(u, fn)
}

// neighborsLocked is Neighbors for callers already holding ov.mu: a merge of
// the base adjacency (dead edges skipped, overrides applied) with the
// inserted half-edges, both sorted by neighbor id. A vertex no entry touches
// has exactly its base adjacency, which is read with no map probe.
func (ov *Overlay) neighborsLocked(u graph.Vertex, fn func(v graph.Vertex, w float64) bool) {
	if ov.touch[u] == 0 {
		ov.base.Neighbors(u, func(_ graph.Port, v graph.Vertex, w float64) bool { return fn(v, w) })
		return
	}
	adds := ov.added[u]
	i := 0
	done := false
	ov.base.Neighbors(u, func(_ graph.Port, v graph.Vertex, w float64) bool {
		for i < len(adds) && adds[i].v < v {
			if !fn(adds[i].v, adds[i].w) {
				done = true
				return false
			}
			i++
		}
		if st, ok := ov.states[keyOf(u, v)]; ok {
			if !st.alive {
				return true
			}
			w = st.w
		}
		if !fn(v, w) {
			done = true
			return false
		}
		return true
	})
	if done {
		return
	}
	for ; i < len(adds); i++ {
		if !fn(adds[i].v, adds[i].w) {
			return
		}
	}
}

// Connected reports whether the effective graph is connected.
func (ov *Overlay) Connected() bool {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	n := ov.base.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []graph.Vertex{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ov.neighborsLocked(u, func(v graph.Vertex, _ float64) bool {
			if !seen[v] {
				seen[v] = true
				cnt++
				stack = append(stack, v)
			}
			return true
		})
	}
	return cnt == n
}

// Materialize builds the effective graph as a standalone immutable Graph.
// The result is a pure function of the effective edge set (Builder sorts
// adjacency), so materializing base+overlay is bit-identical - same
// fingerprint - to building the churned graph from scratch, which is what
// makes a rebuilt generation comparable to a from-scratch preprocessing run.
func (ov *Overlay) Materialize() (*graph.Graph, error) {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	n := ov.base.N()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		ov.base.Neighbors(graph.Vertex(u), func(_ graph.Port, v graph.Vertex, w float64) bool {
			if graph.Vertex(u) >= v {
				return true
			}
			if st, ok := ov.states[edgeKey{graph.Vertex(u), v}]; ok {
				if !st.alive {
					return true
				}
				w = st.w
			}
			b.AddEdge(graph.Vertex(u), v, w)
			return true
		})
	}
	// Inserted edges, in canonical order for a deterministic builder input.
	keys := make([]edgeKey, 0)
	for k, st := range ov.states {
		if st.alive && !ov.base.HasEdge(k.u, k.v) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})
	for _, k := range keys {
		b.AddEdge(k.u, k.v, ov.states[k].w)
	}
	return b.Build()
}

// Rebase re-anchors the overlay on a new base graph (the materialized
// effective graph a fresh generation was preprocessed for) and prunes every
// entry whose absolute state the new base already agrees with - typically
// all of them, unless updates arrived while the new generation was being
// built. The effective graph is unchanged by construction; only the split
// between "base" and "delta" moves.
func (ov *Overlay) Rebase(newBase *graph.Graph) error {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if newBase.N() != ov.base.N() {
		return fmt.Errorf("live: rebase onto a graph with %d vertices, overlay has %d", newBase.N(), ov.base.N())
	}
	for k, st := range ov.states {
		bw, err := newBase.EdgeWeight(k.u, k.v)
		baseHas := err == nil
		if (st.alive && baseHas && st.w == bw) || (!st.alive && !baseHas) {
			ov.dropState(k)
		}
	}
	ov.base = newBase
	// Rebuild the inserted adjacency lists against the new base.
	ov.added = make(map[graph.Vertex][]halfAdd)
	for k, st := range ov.states {
		if st.alive && !newBase.HasEdge(k.u, k.v) {
			ov.insertAdded(k, st.w)
		}
	}
	ov.publish()
	return nil
}

// Entry is one overlay entry in canonical order, the exchange format of the
// snapshot journal and the admin protocol.
type Entry struct {
	U, V  graph.Vertex
	W     float64
	Alive bool
}

// Entries returns the overlay's entries sorted by (U, V) - a deterministic
// image of the delta for journals and tests.
func (ov *Overlay) Entries() []Entry {
	ov.mu.RLock()
	defer ov.mu.RUnlock()
	out := make([]Entry, 0, len(ov.states))
	for k, st := range ov.states {
		out = append(out, Entry{U: k.u, V: k.v, W: st.w, Alive: st.alive})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// RestoreEntries installs decoded journal entries and version into a fresh
// overlay (it fails on an overlay that has already been touched). Each entry
// is validated against the base graph; dead entries must name base edges.
func (ov *Overlay) RestoreEntries(entries []Entry, version uint64) error {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if len(ov.states) != 0 || ov.version != 0 {
		return fmt.Errorf("live: restore into a non-fresh overlay")
	}
	n := graph.Vertex(ov.base.N())
	for _, e := range entries {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U >= e.V {
			return fmt.Errorf("live: restore: entry {%d,%d} not canonical in [0,%d)", e.U, e.V, n)
		}
		k := edgeKey{e.U, e.V}
		if _, dup := ov.states[k]; dup {
			return fmt.Errorf("live: restore: duplicate entry {%d,%d}", e.U, e.V)
		}
		bw, err := ov.base.EdgeWeight(e.U, e.V)
		baseHas := err == nil
		if !e.Alive {
			if !baseHas {
				return fmt.Errorf("live: restore: dead entry {%d,%d} is not a base edge", e.U, e.V)
			}
			ov.putState(k, edgeState{alive: false})
			continue
		}
		if !(e.W > 0) || math.IsInf(e.W, 1) || math.IsNaN(e.W) {
			return fmt.Errorf("live: restore: entry {%d,%d} has invalid weight %v", e.U, e.V, e.W)
		}
		if baseHas && e.W == bw {
			return fmt.Errorf("live: restore: entry {%d,%d} equals its base edge", e.U, e.V)
		}
		ov.putState(k, edgeState{w: e.W, alive: true})
		if !baseHas {
			ov.insertAdded(k, e.W)
		}
	}
	ov.version = version
	ov.publish()
	return nil
}
