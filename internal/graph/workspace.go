package graph

// Workspace is the reusable scratch state of one search over one graph: the
// tentative-distance/parent labels of a Dijkstra-style search, a 4-ary
// min-heap, a head-indexed BFS queue, and epoch-stamped membership sets. Acquire one
// from the owning graph's pool (AcquireWorkspace / ReleaseWorkspace); a
// workspace is sized for that graph and must not be used with another.
//
// # Epoch stamping
//
// Instead of clearing O(n) state between searches, the workspace stamps
// every label it writes with the current epoch: seen[v] == epoch means the
// dist/parent entries of v belong to this search. Reset bumps the epoch,
// invalidating all labels in O(1); when the 32-bit epoch wraps, the stamp
// array is zeroed once and the epoch restarts at 1, so stale stamps can
// never collide.
//
// # Determinism
//
// The heap orders items by (dist, id), the exact tie-break contract of
// ShortestPaths, and a 4-ary heap pops the same (dist, id) sequence as any
// other min-heap under that total order (entries for equal keys are
// duplicates of one vertex and indistinguishable), so switching heap shape
// or reusing a pooled workspace never changes any search result.
//
// A Workspace is not safe for concurrent use; the pool hands each goroutine
// its own.
type Workspace struct {
	dist   []float64
	parent []Vertex
	seen   []uint32 // seen[v] == epoch: dist/parent of v are valid
	epoch  uint32
	heap   Heap4
	queue  []Vertex // BFS queue storage, drained by a head index (never wraps)
}

func newWorkspace(n int) *Workspace {
	return &Workspace{
		dist:   make([]float64, n),
		parent: make([]Vertex, n),
		seen:   make([]uint32, n),
		// The zeroed stamp array must mean "nothing labeled", so the live
		// epoch starts above 0 - otherwise a fresh workspace used through
		// Relax/Pop before the first Reset would see every vertex as
		// already labeled at distance 0.
		epoch: 1,
		queue: make([]Vertex, 0, n),
	}
}

// AcquireWorkspace hands out a search workspace sized for g from the graph's
// pool. Release it with ReleaseWorkspace when the search is finished; the
// scratch is recycled across searches and workers, which is what keeps the
// steady-state search kernels allocation-free.
func (g *Graph) AcquireWorkspace() *Workspace {
	return g.wsPool.Get().(*Workspace)
}

// ReleaseWorkspace returns ws to g's pool. The caller must not touch ws (or
// any label read through it) afterwards.
func (g *Graph) ReleaseWorkspace(ws *Workspace) {
	g.wsPool.Put(ws)
}

// Reset starts a new search: it invalidates all labels by bumping the epoch
// and empties the heap. O(1) except once per 2^32-1 searches, when the wrap
// forces a one-time stamp clear.
func (ws *Workspace) Reset() {
	ws.epoch++
	if ws.epoch == 0 { // wrapped: stale stamps could now collide, clear once
		clear(ws.seen)
		ws.epoch = 1
	}
	ws.heap.Reset()
}

// Start is Reset plus seeding the search at src: dist 0, no parent, src
// pushed onto the heap. It is the usual opening move of the pruned
// Dijkstra-style searches built on top of a Workspace.
func (ws *Workspace) Start(src Vertex) {
	ws.Reset()
	ws.dist[src] = 0
	ws.parent[src] = NoVertex
	ws.seen[src] = ws.epoch
	ws.heap.Push(0, src)
}

// rowScratch hands out the label arrays as plain n-entry buffers for a full
// search that writes distances and first hops into them (a LazyAPSP row fill
// narrows them into the row it keeps). It resets first, so no label of the
// current search is valid while the buffers hold other values.
func (ws *Workspace) rowScratch() ([]float64, []Vertex) {
	ws.Reset()
	return ws.dist, ws.parent
}

// Dist returns the tentative distance of v in the current search and whether
// v has been labeled at all.
func (ws *Workspace) Dist(v Vertex) (float64, bool) {
	if ws.seen[v] != ws.epoch {
		return Infinity, false
	}
	return ws.dist[v], true
}

// Parent returns the search-tree parent of a labeled vertex.
func (ws *Workspace) Parent(v Vertex) Vertex { return ws.parent[v] }

// Relax offers the path to v of length d through parent. It updates the
// label and pushes v if v is unlabeled or d improves on v's tentative
// distance, and reports whether it did. Equal distances never overwrite -
// the first labeling wins, the tie-break every canonical-path consumer
// relies on.
func (ws *Workspace) Relax(v Vertex, d float64, parent Vertex) bool {
	if ws.seen[v] == ws.epoch && ws.dist[v] <= d {
		return false
	}
	ws.dist[v] = d
	ws.parent[v] = parent
	ws.seen[v] = ws.epoch
	ws.heap.Push(d, v)
	return true
}

// Pop removes and returns the next vertex in (dist, id) order, skipping
// stale heap entries (those whose distance no longer matches the label).
// ok is false when the search frontier is exhausted.
func (ws *Workspace) Pop() (v Vertex, d float64, ok bool) {
	for ws.heap.Len() > 0 {
		d, v := ws.heap.Pop()
		if ws.seen[v] != ws.epoch || d != ws.dist[v] {
			continue // superseded by a later, shorter relaxation
		}
		return v, d, true
	}
	return NoVertex, Infinity, false
}

// Peek returns the next vertex in (dist, id) order without finalizing it,
// discarding stale heap entries on the way (the same lazy deletion Pop
// applies, so a following Pop returns exactly the peeked entry). ok is false
// when the search frontier is exhausted. Peek is what the bidirectional
// kernel's termination rule is built on: it needs both frontiers' next keys
// before deciding which side to expand.
func (ws *Workspace) Peek() (v Vertex, d float64, ok bool) {
	for ws.heap.Len() > 0 {
		d, v := ws.heap.Top()
		if ws.seen[v] == ws.epoch && d == ws.dist[v] {
			return v, d, true
		}
		ws.heap.Pop() // superseded by a later, shorter relaxation
	}
	return NoVertex, Infinity, false
}

// Heap4 is a 4-ary min-heap of (dist, vertex) pairs ordered by (dist, id).
// The flatter shape does ~half the levels of a binary heap per operation,
// and the parallel ds/vs arrays keep sift comparisons on one cache line;
// both matter because every search kernel funnels through this structure.
// The pop order under the (dist, id) total order is identical to the binary
// heap it replaced, so all canonical tie-breaks are preserved. The zero
// value is an empty heap.
type Heap4 struct {
	ds []float64
	vs []Vertex
}

// Len returns the number of entries.
func (h *Heap4) Len() int { return len(h.ds) }

// Reset empties the heap, keeping its storage.
func (h *Heap4) Reset() {
	h.ds = h.ds[:0]
	h.vs = h.vs[:0]
}

// Top returns the least entry without removing it. The heap must not be
// empty.
func (h *Heap4) Top() (float64, Vertex) { return h.ds[0], h.vs[0] }

func (h *Heap4) lessAt(i, j int) bool {
	if h.ds[i] != h.ds[j] {
		return h.ds[i] < h.ds[j]
	}
	return h.vs[i] < h.vs[j]
}

func (h *Heap4) swap(i, j int) {
	h.ds[i], h.ds[j] = h.ds[j], h.ds[i]
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
}

// Push adds the entry (d, v).
func (h *Heap4) Push(d float64, v Vertex) {
	h.ds = append(h.ds, d)
	h.vs = append(h.vs, v)
	i := len(h.ds) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.lessAt(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// Pop removes and returns the least entry. The heap must not be empty.
func (h *Heap4) Pop() (float64, Vertex) {
	d, v := h.ds[0], h.vs[0]
	last := len(h.ds) - 1
	h.ds[0], h.vs[0] = h.ds[last], h.vs[last]
	h.ds, h.vs = h.ds[:last], h.vs[:last]
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h.ds) {
			break
		}
		small := first
		end := first + 4
		if end > len(h.ds) {
			end = len(h.ds)
		}
		for c := first + 1; c < end; c++ {
			if h.lessAt(c, small) {
				small = c
			}
		}
		if !h.lessAt(small, i) {
			break
		}
		h.swap(i, small)
		i = small
	}
	return d, v
}
