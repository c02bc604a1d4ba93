package treeroute

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"compactroute/internal/graph"
	"compactroute/internal/wire"
)

// TestIdxFindsTreeVertices holds the open-addressed position table to the
// sorted vertex array: idx finds every tree vertex at its index and returns
// -1 for every other id - 0 and n-1 included, which the table's v+1 slot
// encoding must not mistake for an empty slot - and for NoVertex. Stars over
// random leaf sets of every density exercise probe chains of all lengths.
// The largest graph has ids past 0xFFFF, so its trees take the 8-byte slots
// and the rest the 4-byte ones; every tree is checked as New built it and
// as DecodeFlatForest rebuilt it, and is also asked ids at or above 0xFFFF
// whose truncated 16-bit key equals a tree vertex's.
func TestIdxFindsTreeVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wide := 0
	for _, n := range []int{3, 4, 9, 64, 500, 0x10000 + 40} {
		for trial := 0; trial < 8; trial++ {
			root := graph.Vertex(1 + rng.Intn(n-2))
			b := graph.NewBuilder(n)
			edges := []Edge{{V: root, Parent: graph.NoVertex}}
			for v := graph.Vertex(1); v < graph.Vertex(n-1); v++ {
				if v != root && rng.Intn(8) <= trial {
					b.AddEdge(root, v, 1)
					edges = append(edges, Edge{V: v, Parent: root})
				}
			}
			// 0 and n-1 are graph vertices outside the tree.
			b.AddEdge(0, root, 1)
			b.AddEdge(graph.Vertex(n-1), root, 1)
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := New(g, edges)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Tree{tr, flatRoundTrip(t, g, tr)} {
				checkIdx(t, n, trial, got)
			}
			if tr.pos32 != nil {
				wide++
			}
		}
	}
	if wide == 0 {
		t.Fatal("no tree took the 8-byte slots")
	}
}

// flatRoundTrip encodes tr alone with EncodeFlatForest and decodes it again.
func flatRoundTrip(t *testing.T, g *graph.Graph, tr *Tree) *Tree {
	t.Helper()
	var e wire.Encoder
	EncodeFlatForest(&e, []*Tree{tr})
	d := wire.NewDecoder("forest", e.Bytes())
	trees, err := DecodeFlatForest(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return trees[0]
}

// checkIdx compares idx with a binary search of the sorted vertex array
// over every id in [-1, n] and the alias ids, and checks the slot width.
func checkIdx(t *testing.T, n, trial int, tr *Tree) {
	t.Helper()
	want := func(v graph.Vertex) int {
		i := sort.Search(len(tr.vs), func(i int) bool { return tr.vs[i] >= v })
		if i < len(tr.vs) && tr.vs[i] == v {
			return i
		}
		return -1
	}
	ids := []graph.Vertex{0xFFFF, 0x10000, math.MaxInt32}
	for _, v := range tr.vs {
		ids = append(ids, v+0xFFFF, v+0x10000)
	}
	for v := graph.Vertex(-1); v <= graph.Vertex(n); v++ {
		ids = append(ids, v)
	}
	for _, v := range ids {
		if got := tr.idx(v); got != want(v) {
			t.Fatalf("n=%d trial %d: idx(%d) = %d, want %d", n, trial, v, got, want(v))
		}
	}
	if narrow := tr.vs[len(tr.vs)-1] <= maxNarrowID; (tr.pos16 != nil) != narrow || (tr.pos32 != nil) == narrow {
		t.Fatalf("n=%d trial %d: largest id %d got 16-bit table %v, 32-bit table %v", n, trial, tr.vs[len(tr.vs)-1], tr.pos16 != nil, tr.pos32 != nil)
	}
}

// TestDecodeFlatForestChargesItsHeap decodes a forest of one-vertex trees,
// where the Tree structs are most of what the decode allocates, and
// requires the heap bytes DecodeFlatForest allocates to stay within what it
// charged to the snapshot's decode budget.
func TestDecodeFlatForestChargesItsHeap(t *testing.T) {
	const n = 4096
	b := graph.NewBuilder(n)
	for v := graph.Vertex(1); v < n; v++ {
		b.AddEdge(v-1, v, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	trees := make([]*Tree, n)
	for v := range trees {
		if trees[v], err = New(g, []Edge{{V: graph.Vertex(v), Parent: graph.NoVertex}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := wire.New("forest-test", g.Fingerprint())
	EncodeFlatForest(snap.AlignedSection("forest"), trees)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parse := func() *wire.Snapshot {
		s, err := wire.Parse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	full := budgetLeft(t, parse())
	s := parse()
	d, err := s.Decoder("forest")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := DecodeFlatForest(d, g)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d trees, want %d", len(got), n)
	}
	charged := full - budgetLeft(t, s)
	heap := int64(after.TotalAlloc - before.TotalAlloc)
	if heap > charged {
		t.Fatalf("decoding %d one-vertex trees allocated %d heap bytes (%.1f a tree) but charged %d (%.1f a tree)",
			n, heap, float64(heap)/n, charged, float64(charged)/n)
	}
}

// budgetLeft drains and returns what s's decode budget still admits. A
// failed Decoder.Alloc charges nothing, so taking each power of two that
// still fits, largest first, sums to exactly the remainder.
func budgetLeft(t *testing.T, s *wire.Snapshot) int64 {
	t.Helper()
	left := int64(0)
	for bit := 62; bit >= 0; bit-- {
		d, err := s.Decoder("forest")
		if err != nil {
			t.Fatal(err)
		}
		if d.Alloc(1 << bit) {
			left += 1 << bit
		}
	}
	return left
}
