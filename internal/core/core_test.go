package core_test

import (
	"bytes"
	"math/bits"
	"testing"

	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/testutil"
	"compactroute/internal/vicinity"
	"compactroute/internal/wire"
)

// fixture bundles the shared preprocessing inputs of both techniques.
type fixture struct {
	g      *graph.Graph
	apsp   *graph.APSP
	vics   []*vicinity.Set
	col    *coloring.Coloring
	q      int
	partOf []int32
	reps   [][]graph.Vertex // per-color representatives, Lemma 8's relay representatives
}

func newFixture(t *testing.T, n, m, q int, seed int64, wt gen.Weighting) *fixture {
	t.Helper()
	return newFixtureOn(t, testutil.MustGNM(t, n, m, seed, wt), q, seed)
}

// newFixtureOn is newFixture over a given graph.
func newFixtureOn(t *testing.T, g *graph.Graph, q int, seed int64) *fixture {
	t.Helper()
	n := g.N()
	apsp := graph.AllPairs(g)
	l := vicinity.InflatedSize(q, n, 1.5)
	vics, err := vicinity.BuildAll(g, l)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]graph.Vertex, n)
	for u := range sets {
		for _, mem := range vics[u].Members() {
			sets[u] = append(sets[u], mem.V)
		}
	}
	col, err := coloring.New(n, q, sets, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := schemeutil.RestoreVicinityColoring(q, l, vics, col)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, apsp: apsp, vics: vics, col: col, q: q, partOf: vc.PartOf, reps: vc.Reps}
}

func TestLemma7RoutesSamePartPairs(t *testing.T) {
	tests := []struct {
		name string
		wt   gen.Weighting
		eps  float64
	}{
		{"unweighted eps=0.5", gen.Unit, 0.5},
		{"unweighted eps=0.25", gen.Unit, 0.25},
		{"weighted eps=0.5", gen.UniformInt, 0.5},
		{"weighted eps=1", gen.UniformInt, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fx := newFixture(t, 120, 360, 4, 3, tt.wt)
			in, err := core.NewIntra(core.IntraConfig{
				Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: tt.eps,
			})
			if err != nil {
				t.Fatal(err)
			}
			sch := &core.IntraScheme{In: in}
			nw := simnet.NewNetwork(sch)
			routed := 0
			for j := 0; j < fx.q; j++ {
				class := fx.col.Class(coloring.Color(j))
				for _, u := range class {
					for _, v := range class {
						res, err := nw.Route(u, v)
						if err != nil {
							t.Fatalf("route %d->%d: %v", u, v, err)
						}
						d := fx.apsp.Dist(u, v)
						testutil.CheckStretch(t, sch.Name(), u, v, res.Weight, sch.StretchBound(d))
						routed++
					}
				}
			}
			if routed == 0 {
				t.Fatal("no pairs routed")
			}
		})
	}
}

func TestLemma7HeaderStaysSmall(t *testing.T) {
	fx := newFixture(t, 100, 300, 3, 5, gen.Unit)
	eps := 0.25
	in, err := core.NewIntra(core.IntraConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	sch := &core.IntraScheme{In: in}
	nw := simnet.NewNetwork(sch)
	// Header bound: the sequence has at most 2b waypoints plus O(1) fields.
	limit := 2*in.Budget() + 4
	class := fx.col.Class(0)
	for _, u := range class {
		for _, v := range class {
			res, err := nw.Route(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if res.HeaderWords > limit {
				t.Fatalf("header %d exceeds O(1/eps) bound %d", res.HeaderWords, limit)
			}
		}
	}
}

func TestLemma8RoutesPartToTargets(t *testing.T) {
	tests := []struct {
		name string
		wt   gen.Weighting
		eps  float64
	}{
		{"unweighted eps=0.5", gen.Unit, 0.5},
		{"weighted eps=0.5", gen.UniformInt, 0.5},
		{"weighted eps=0.2", gen.UniformInt, 0.2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fx := newFixture(t, 120, 360, 4, 7, tt.wt)
			// Target set: every third vertex, chunked into q parts.
			var targets []graph.Vertex
			for v := 0; v < fx.g.N(); v += 3 {
				targets = append(targets, graph.Vertex(v))
			}
			wParts := make([][]graph.Vertex, fx.q)
			for i, w := range targets {
				wParts[i%fx.q] = append(wParts[i%fx.q], w)
			}
			in, err := core.NewInter(core.InterConfig{
				Graph: fx.g, Paths: fx.apsp, Vics: fx.vics,
				UPartOf: fx.partOf, Reps: fx.reps, WParts: wParts, Eps: tt.eps,
			})
			if err != nil {
				t.Fatal(err)
			}
			sch := &core.InterScheme{In: in}
			nw := simnet.NewNetwork(sch)
			routed := 0
			for j := 0; j < fx.q; j++ {
				srcs := fx.col.Class(coloring.Color(j))
				for si, u := range srcs {
					for wi, w := range wParts[j] {
						if (si+wi)%2 == 1 { // sample half the pairs to keep the test quick
							continue
						}
						res, err := nw.Route(u, w)
						if err != nil {
							t.Fatalf("route %d->%d: %v", u, w, err)
						}
						d := fx.apsp.Dist(u, w)
						testutil.CheckStretch(t, sch.Name(), u, w, res.Weight, sch.StretchBound(d))
						routed++
					}
				}
			}
			if routed == 0 {
				t.Fatal("no pairs routed")
			}
		})
	}
}

// TestInterRepairMatchesBuild repairs a Lemma 8 structure on its own graph,
// once with no sequence dirty (every one copied from the old layout) and
// once with about half of them dirty (rebuilt): both results, relay bits
// included, encode to the bytes of the build. A path with small vicinities
// makes sequences long enough to end at relays.
func TestInterRepairMatchesBuild(t *testing.T) {
	fx := newFixtureOn(t, testutil.MustPath(t, 120, nil), 2, 7)
	wParts := make([][]graph.Vertex, fx.q)
	for v := 0; v < fx.g.N(); v += 2 {
		wParts[v/2%fx.q] = append(wParts[v/2%fx.q], graph.Vertex(v))
	}
	in, err := core.NewInter(core.InterConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics,
		UPartOf: fx.partOf, Reps: fx.reps, WParts: wParts, Eps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want wire.Encoder
	in.EncodeWireV2(&want)
	d := wire.NewDecoder("inter", want.Bytes())
	d.Float64()
	d.Uint32Array()
	d.VertexArray()
	relays := 0
	for _, w := range d.Uint32Array() {
		relays += bits.OnesCount32(w)
	}
	if relays == 0 {
		t.Fatal("the fixture stores no relay sequence")
	}
	for _, tt := range []struct {
		name  string
		dirty func(u, w graph.Vertex, _ []graph.Vertex) bool
	}{
		{"none dirty", nil},
		{"half dirty", func(u, w graph.Vertex, _ []graph.Vertex) bool { return (u+w)%2 == 0 }},
	} {
		out, rebuilt, err := in.Repair(core.InterRepairConfig{
			Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, Reps: fx.reps,
			VicDirty: make([]bool, fx.g.N()), SeqDirty: tt.dirty,
		})
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if (rebuilt == 0) != (tt.dirty == nil) {
			t.Fatalf("%s: %d sequences rebuilt", tt.name, rebuilt)
		}
		var got wire.Encoder
		out.EncodeWireV2(&got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: repaired layout differs from the build (%d relay sequences)", tt.name, relays)
		}
	}
}

func TestLemma8RejectsWrongPart(t *testing.T) {
	fx := newFixture(t, 80, 240, 3, 9, gen.Unit)
	wParts := make([][]graph.Vertex, fx.q)
	for v := 0; v < 30; v++ {
		wParts[v%fx.q] = append(wParts[v%fx.q], graph.Vertex(v))
	}
	in, err := core.NewInter(core.InterConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics,
		UPartOf: fx.partOf, Reps: fx.reps, WParts: wParts, Eps: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a (src, dst) pair with mismatched parts.
	for _, w := range wParts[0] {
		for u := 0; u < fx.g.N(); u++ {
			if fx.partOf[u] != 0 && graph.Vertex(u) != w {
				if _, err := in.Start(graph.Vertex(u), w); err == nil {
					t.Fatal("expected part-mismatch error")
				}
				return
			}
		}
	}
}

func TestIntraRejectsBadEps(t *testing.T) {
	fx := newFixture(t, 40, 100, 2, 2, gen.Unit)
	_, err := core.NewIntra(core.IntraConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: 0,
	})
	if err == nil {
		t.Fatal("expected error for eps=0")
	}
}

func TestIntraSelfRoute(t *testing.T) {
	fx := newFixture(t, 40, 100, 2, 2, gen.Unit)
	in, err := core.NewIntra(core.IntraConfig{
		Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.NewNetwork(&core.IntraScheme{In: in})
	res, err := nw.Route(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops != 0 || res.Weight != 0 {
		t.Fatalf("self route should be trivial, got %+v", res)
	}
}
