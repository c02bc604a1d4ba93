package netsim_test

import (
	"testing"

	"compactroute/internal/exact"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/netsim"
	"compactroute/internal/scheme5"
	"compactroute/internal/testutil"
)

func TestConcurrentRoutingMatchesSimulator(t *testing.T) {
	g := testutil.MustGNM(t, 100, 300, 3, gen.UniformInt)
	apsp := graph.AllPairs(g)
	s, err := scheme5.New(g, apsp, scheme5.Params{Eps: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.New(s)
	defer nw.Close()
	pairs := testutil.Pairs(g.N(), 3, 7)
	deliveries, err := nw.RouteAll(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deliveries {
		if d.Err != nil {
			t.Fatalf("pair %v: %v", pairs[i], d.Err)
		}
		dist := apsp.Dist(d.Src, d.Dst)
		testutil.CheckStretch(t, "netsim/"+s.Name(), d.Src, d.Dst, d.Weight, s.StretchBound(dist))
	}
}

func TestManyConcurrentMessages(t *testing.T) {
	g := testutil.MustGNM(t, 80, 240, 5, gen.Unit)
	s, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	apsp := graph.AllPairs(g)
	nw := netsim.New(s)
	defer nw.Close()
	// Saturate the network: all ordered pairs at once.
	deliveries, err := nw.RouteAll(testutil.Pairs(g.N(), 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deliveries {
		if d.Err != nil {
			t.Fatal(d.Err)
		}
		if d.Weight != apsp.Dist(d.Src, d.Dst) {
			t.Fatalf("%d->%d weight %v want %v", d.Src, d.Dst, d.Weight, apsp.Dist(d.Src, d.Dst))
		}
	}
}

// TestChurnDegradedAndRecoveredDelivery is the churn scenario of the
// concurrent network: a deletion trace degrades the graph while the scheme
// still routes on its preprocessed tables (dead edges bypassed with base
// -edge detours via live.AsScheme), then a rebuilt scheme on the
// materialized churned graph serves the recovered state. In both states
// every message must be delivered, and the routed weight can never beat the
// true distance of the state's effective graph.
func TestChurnDegradedAndRecoveredDelivery(t *testing.T) {
	g := testutil.MustGNM(t, 100, 300, 3, gen.UniformInt)
	apsp := graph.AllPairs(g)
	s, err := scheme5.New(g, apsp, scheme5.Params{Eps: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ov := live.NewOverlay(g)
	trace := live.DeletionTrace(g, 0.10, 21)
	if len(trace) == 0 {
		t.Fatal("empty deletion trace")
	}
	for _, up := range trace {
		if err := ov.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	// Degraded state: the patched scheme runs unchanged under the
	// goroutine-per-vertex executor. Deletion-only churn keeps the
	// preprocessed edge weights current, so delivery weights are exact. The
	// detour budget is the whole graph: netsim has no exact-fallback escape
	// hatch, and the trace keeps the survivors connected, so a full search
	// always finds the bypass.
	patched, err := live.AsScheme(s, ov, g.N())
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.New(patched)
	defer nw.Close()
	pairs := testutil.Pairs(g.N(), 3, 7)
	deliveries, err := nw.RouteAll(pairs)
	if err != nil {
		t.Fatal(err)
	}
	churned, err := ov.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	capsp := graph.AllPairs(churned)
	for i, d := range deliveries {
		if d.Err != nil {
			t.Fatalf("degraded delivery %v: %v", pairs[i], d.Err)
		}
		if truth := capsp.Dist(d.Src, d.Dst); d.Weight < truth-1e-9 {
			t.Fatalf("degraded %d->%d weight %v beats effective distance %v", d.Src, d.Dst, d.Weight, truth)
		}
	}
	// Recovered state: rebuild on the materialized churned graph and run
	// the concurrent network as usual; the proved bound holds again.
	rebuilt, err := scheme5.New(churned, capsp, scheme5.Params{Eps: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw2 := netsim.New(rebuilt)
	defer nw2.Close()
	deliveries, err = nw2.RouteAll(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deliveries {
		if d.Err != nil {
			t.Fatalf("recovered delivery %v: %v", pairs[i], d.Err)
		}
		testutil.CheckStretch(t, "netsim-churn/"+rebuilt.Name(), d.Src, d.Dst, d.Weight,
			rebuilt.StretchBound(capsp.Dist(d.Src, d.Dst)))
	}
}

func TestSendAfterClose(t *testing.T) {
	g := testutil.MustGNM(t, 20, 40, 1, gen.Unit)
	s, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.New(s)
	nw.Close()
	if _, err := nw.Send(0, 1); err == nil {
		t.Fatal("expected ErrClosed")
	}
	nw.Close() // double close is safe
}
