package schemeutil_test

import (
	"testing"

	"compactroute/internal/cluster"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/space"
	"compactroute/internal/testutil"
)

func TestVicinityColoringRepresentatives(t *testing.T) {
	g := testutil.MustGNM(t, 160, 480, 3, gen.Unit)
	q := 4
	vc, err := schemeutil.BuildVicinityColoring(g, q, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		seen := make(map[int32]bool)
		for c := 0; c < q; c++ {
			rep := vc.Reps[u][c]
			// The representative really has color c and lives in B(u).
			if int(vc.PartOf[rep]) != c {
				t.Fatalf("rep of color %d at %d has color %d", c, u, vc.PartOf[rep])
			}
			if !vc.Vics[u].Contains(rep) {
				t.Fatalf("rep %d not in B(%d)", rep, u)
			}
			// It is the closest member of that color: no earlier member
			// shares the color (members are in (dist, id) order), and its
			// distance is the one recorded.
			vic := vc.Vics[u]
			i := 0
			for ; vic.MemberV(i) != rep; i++ {
				if vc.PartOf[vic.MemberV(i)] == int32(c) {
					t.Fatalf("rep at %d color %d is not the closest", u, c)
				}
			}
			if vic.MemberDist(i) != vc.RepDist[u][c] {
				t.Fatalf("rep dist mismatch at %d color %d", u, c)
			}
			seen[int32(c)] = true
		}
		if len(seen) != q {
			t.Fatalf("vertex %d has %d rep colors", u, len(seen))
		}
	}
}

func TestVicinityColoringRejectsBadQ(t *testing.T) {
	g := testutil.MustGNM(t, 30, 60, 1, gen.Unit)
	if _, err := schemeutil.BuildVicinityColoring(g, 0, 1.5, 1); err == nil {
		t.Fatal("expected error for q=0")
	}
}

func TestClusterForestLabels(t *testing.T) {
	g := testutil.MustGNM(t, 80, 200, 5, gen.UniformInt)
	lms, err := cluster.CenterCover(g, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := schemeutil.BuildClusterForest(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < g.N(); w++ {
		members := lms.Cluster(graph.Vertex(w))
		tr := f.Tree(graph.Vertex(w))
		if tr == nil {
			t.Fatalf("no tree for cluster of %d", w)
		}
		if tr.Root() != graph.Vertex(w) || tr.Size() != len(members) {
			t.Fatalf("tree of %d inconsistent with cluster", w)
		}
		for _, m := range members {
			if _, ok := f.LabelAtRoot(graph.Vertex(w), m.V); !ok {
				t.Fatalf("member %d of C(%d) has no root label", m.V, w)
			}
		}
		if _, ok := f.LabelAtRoot(graph.Vertex(w), graph.Vertex((w+1)%g.N())); ok {
			// Only fails when the neighbor happens to be in the cluster.
			found := false
			for _, m := range members {
				if m.V == graph.Vertex((w+1)%g.N()) {
					found = true
				}
			}
			if !found {
				t.Fatalf("LabelAtRoot returned a label for a non-member")
			}
		}
	}
}

func TestForestWordsAccounting(t *testing.T) {
	g := testutil.MustGNM(t, 60, 150, 7, gen.Unit)
	lms, err := cluster.CenterCover(g, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := schemeutil.BuildClusterForest(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	tl := space.NewTally(g.N())
	f.AddWords(tl, "trees")
	if tl.TotalStats().Total == 0 {
		t.Fatal("no storage charged")
	}
	// Every vertex belongs at least to its own cluster tree.
	for v := 0; v < g.N(); v++ {
		if tl.At(v) == 0 {
			t.Fatalf("vertex %d charged nothing", v)
		}
	}
}
