package netsim_test

import (
	"testing"

	"compactroute/internal/exact"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
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
