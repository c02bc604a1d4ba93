package graph

import (
	"sync"
	"sync/atomic"
)

// DefaultLazyBudget is the cache budget LazyAPSP uses when LazyConfig leaves
// MemBudget unset: 256 MiB of cached rows.
const DefaultLazyBudget = 256 << 20

// defaultLazyShards balances lock contention against per-shard cache skew.
const defaultLazyShards = 16

// LazyConfig configures a LazyAPSP.
type LazyConfig struct {
	// MemBudget caps the memory held by cached rows, in bytes; <= 0 selects
	// DefaultLazyBudget. The budget is split evenly across shards and every
	// shard keeps at least one row, so the effective floor is Shards rows.
	MemBudget int64
	// Shards is the number of independently locked cache shards; <= 0
	// selects a default of 16.
	Shards int
}

// LazyStats is a snapshot of a LazyAPSP's cache behavior.
type LazyStats struct {
	Hits int64
	// Misses counts the rows computed into this cache, one per inserted fill:
	// a Row call that loses a fill race counts neither a hit nor a miss.
	Misses    int64
	Evictions int64
	// CachedRows and PeakRows count rows resident now and at the high-water
	// mark. NarrowRows counts the resident rows whose distances are stored at
	// 16 bits (see Row).
	CachedRows int
	PeakRows   int
	NarrowRows int
	// CachedBytes and PeakBytes are the accounted bytes of the resident rows
	// now and at the high-water mark: each row's two slices at their stored
	// widths plus its cache entry.
	CachedBytes int64
	PeakBytes   int64
	// BudgetBytes is the configured budget after defaulting.
	BudgetBytes int64
	// SharedRows and PatchedRows count the rows Carry seeded this cache
	// with: shared unchanged from the previous cache, or patched across the
	// edge changes. Both are 0 for a cache made by NewLazyAPSP.
	SharedRows  int64
	PatchedRows int64
}

// LazyAPSP is a PathSource that computes per-source shortest-path rows on
// demand and retains them in a concurrency-safe sharded LRU cache bounded by
// a memory budget. Rows come from the same deterministic ShortestPaths
// tie-break as DenseAPSP, so every query answer is bit-identical to the dense
// matrix; only wall-clock time and memory differ. It is the construction
// path for graphs where the Theta(n^2) dense matrices cannot be allocated.
//
// Each row is kept at the narrowest width that gives its values back
// exactly (see Row): 4 bytes per entry on integral weights with distances up
// to 65534 and n <= 65535, up to 12 otherwise. The budget counts every
// resident row's own bytes, so narrow rows fit three times as many into it.
//
// Concurrent Row calls for the same uncached source may compute the row more
// than once; all copies are identical and at most one is retained. The
// transient memory of in-flight computations (one row per calling goroutine)
// is outside the budget, which only governs retained rows.
//
// Under churn a cache follows the graph from one generation to the next with
// Carry, which shares every row an edge update cannot have changed and
// patches the others, instead of filling the new graph's rows from scratch.
type LazyAPSP struct {
	g      *Graph
	n      int
	budget int64
	// shardBudget is each shard's even share of the budget.
	shardBudget int64
	shards      []lazyShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	rows      atomic.Int64
	narrow    atomic.Int64
	bytes     atomic.Int64
	peakRows  atomic.Int64
	peakBytes atomic.Int64

	// shared and patched are set once, by Carry, before the cache is
	// published.
	shared, patched int64
}

var _ PathSource = (*LazyAPSP)(nil)

// lazyShard is one lock domain of the cache: a map for lookup plus an
// intrusive doubly-linked list in recency order (head = most recent), and
// the accounted bytes of the rows it holds.
type lazyShard struct {
	mu         sync.Mutex
	entries    map[Vertex]*lruEntry
	head, tail *lruEntry
	bytes      int64
}

type lruEntry struct {
	row        Row
	prev, next *lruEntry
}

// entryBytes is what a resident row costs beyond its slices: its lruEntry,
// which Go allocates in a 128-byte size class, and its share of the shard
// map's slots.
const entryBytes = 160

// rowCost is the accounted size of a resident row: its two slices at their
// stored widths plus entryBytes.
func rowCost(r Row) int64 {
	return 2*int64(cap(r.dist16)) + 8*int64(cap(r.dist64)) + 2*int64(cap(r.first16)) + 4*int64(cap(r.first32)) + entryBytes
}

// NewLazyAPSP wraps g in an on-demand PathSource with the given cache
// configuration.
func NewLazyAPSP(g *Graph, cfg LazyConfig) *LazyAPSP {
	n := g.N()
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = DefaultLazyBudget
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultLazyShards
	}
	if shards > n && n > 0 {
		shards = n
	}
	l := &LazyAPSP{
		g:           g,
		n:           n,
		budget:      budget,
		shardBudget: budget / int64(shards),
		shards:      make([]lazyShard, shards),
	}
	// A shard holds at most its share over the narrowest row (4 bytes per
	// entry), and never more than the sources that map to it (src % shards).
	hint := min(l.shardBudget/(4*int64(n)+entryBytes)+1, int64((n+shards-1)/shards))
	for i := range l.shards {
		l.shards[i].entries = make(map[Vertex]*lruEntry, hint)
	}
	return l
}

// N returns the number of vertices covered.
func (l *LazyAPSP) N() int { return l.n }

// Dist returns d(u, v).
func (l *LazyAPSP) Dist(u, v Vertex) float64 { return l.Row(u).Dist(v) }

// First returns the vertex that follows u on the canonical shortest path
// from u to v. First(u, u) == u; NoVertex if v is unreachable.
func (l *LazyAPSP) First(u, v Vertex) Vertex { return l.Row(u).First(v) }

// Path returns the canonical shortest path from u to v inclusive, or nil if
// v is unreachable. Like the routing phase itself, the walk consults one row
// per hop, so cold caches pay one search per distinct vertex on the path.
func (l *LazyAPSP) Path(u, v Vertex) []Vertex { return pathVia(l, u, v) }

// Row returns the row of src, computing it with a single-source search on a
// miss and retaining it under the LRU budget.
func (l *LazyAPSP) Row(src Vertex) Row {
	sh := &l.shards[int(src)%len(l.shards)]
	sh.mu.Lock()
	if e, ok := sh.entries[src]; ok {
		sh.moveToFront(e)
		sh.mu.Unlock()
		l.hits.Add(1)
		return e.row
	}
	sh.mu.Unlock()
	// Compute outside the lock so concurrent misses on one shard do not
	// serialize behind each other's searches. The search runs in the pooled
	// workspace's full-width scratch; the only allocations of a row fill are
	// the two retained slices it is narrowed into.
	ws := l.g.AcquireWorkspace()
	dist, first := ws.rowScratch()
	l.g.searchInto(ws, src, dist, nil, first)
	row := narrowRow(src, dist, first)
	l.g.ReleaseWorkspace(ws)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[src]; ok {
		// Another goroutine inserted the same row while we computed; results
		// are identical, keep the resident one.
		sh.moveToFront(e)
		return e.row
	}
	l.insert(sh, row)
	l.misses.Add(1)
	return row
}

// insert makes row the most recent entry of sh, which the caller has
// locked. Least recently used rows are evicted first, until the row fits
// the shard's share of the budget, so resident rows never exceed it; a shard
// always keeps the row it receives, so the floor is one row per shard.
func (l *LazyAPSP) insert(sh *lazyShard, row Row) {
	b := rowCost(row)
	for sh.tail != nil && sh.bytes+b > l.shardBudget {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.row.Src)
		vb := rowCost(victim.row)
		sh.bytes -= vb
		l.bytes.Add(-vb)
		l.rows.Add(-1)
		if victim.row.dist16 != nil {
			l.narrow.Add(-1)
		}
		l.evictions.Add(1)
	}
	e := &lruEntry{row: row}
	sh.entries[row.Src] = e
	sh.pushFront(e)
	sh.bytes += b
	if row.dist16 != nil {
		l.narrow.Add(1)
	}
	storeMax(&l.peakRows, l.rows.Add(1))
	storeMax(&l.peakBytes, l.bytes.Add(b))
}

// storeMax raises m to v if v is larger.
func storeMax(m *atomic.Int64, v int64) {
	for p := m.Load(); v > p && !m.CompareAndSwap(p, v); p = m.Load() {
	}
}

// Stats returns a snapshot of the cache counters.
func (l *LazyAPSP) Stats() LazyStats {
	return LazyStats{
		Hits:        l.hits.Load(),
		Misses:      l.misses.Load(),
		Evictions:   l.evictions.Load(),
		CachedRows:  int(l.rows.Load()),
		PeakRows:    int(l.peakRows.Load()),
		NarrowRows:  int(l.narrow.Load()),
		CachedBytes: l.bytes.Load(),
		PeakBytes:   l.peakBytes.Load(),
		BudgetBytes: l.budget,
		SharedRows:  l.shared,
		PatchedRows: l.patched,
	}
}

func (sh *lazyShard) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *lazyShard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *lazyShard) moveToFront(e *lruEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
