package treeroute

import (
	"math/rand"
	"testing"

	"compactroute/internal/graph"
)

// TestIdxFindsTreeVertices holds the open-addressed position table to the
// sorted vertex array: idx finds every tree vertex at its index and returns
// -1 for every other id - 0 and n-1 included, which the table's v+1 slot
// encoding must not mistake for an empty slot - and for NoVertex. Stars over
// random leaf sets of every density exercise probe chains of all lengths.
func TestIdxFindsTreeVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 4, 9, 64, 500} {
		for trial := 0; trial < 8; trial++ {
			root := graph.Vertex(1 + rng.Intn(n-2))
			in := make([]bool, n)
			in[root] = true
			b := graph.NewBuilder(n)
			edges := []Edge{{V: root, Parent: graph.NoVertex}}
			for v := graph.Vertex(1); v < graph.Vertex(n-1); v++ {
				if v != root && rng.Intn(8) <= trial {
					in[v] = true
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
			for i, v := range tr.vs {
				if got := tr.idx(v); got != i {
					t.Fatalf("n=%d trial %d: idx(%d) = %d, want %d", n, trial, v, got, i)
				}
			}
			for v := graph.Vertex(-1); v <= graph.Vertex(n); v++ {
				if (v < 0 || v >= graph.Vertex(n) || !in[v]) && tr.idx(v) != -1 {
					t.Fatalf("n=%d trial %d: idx(%d) = %d for a vertex outside the tree", n, trial, v, tr.idx(v))
				}
			}
		}
	}
}
