package serve

import (
	"strings"
	"testing"

	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/obs"
	"compactroute/internal/simnet"
	"compactroute/internal/tzroute"
)

// TestEngineObsRegistry checks that an engine built with a registry exposes
// its serving statistics through it, consistent with Stats.
func TestEngineObsRegistry(t *testing.T) {
	g := testGraph(t, 64, 5)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewTraceSink(1, 32)
	sink.Register(reg)
	eng, err := NewLive(s, LiveOptions{Workers: 2, Verify: true, Obs: reg, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pairs := samplePairs(g.N(), 300, 3)
	eng.Query(pairs, nil)
	eng.Route(pairs[0][0], pairs[0][1])

	st := eng.Stats()
	vals := reg.Values()
	if got := vals["compactroute_queries_total"]; got != float64(st.Queries) {
		t.Fatalf("registry queries=%v, Stats=%d", got, st.Queries)
	}
	if got := vals["compactroute_bound_violations_total"]; got != 0 {
		t.Fatalf("bound violations exposed as %v", got)
	}
	if vals["compactroute_graph_vertices"] != float64(g.N()) ||
		vals["compactroute_graph_edges"] != float64(g.M()) {
		t.Fatalf("graph gauges wrong: %v / %v",
			vals["compactroute_graph_vertices"], vals["compactroute_graph_edges"])
	}
	if vals["compactroute_hops_count"] != float64(st.Queries) {
		t.Fatalf("hop histogram count %v, want %d deliveries", vals["compactroute_hops_count"], st.Queries)
	}
	// Every query was traced at rate 1; the tz baseline routes are all tree
	// descents, so the per-decision counters must have landed there.
	if sink.SampledCount() != st.Queries {
		t.Fatalf("sampled %d traces for %d queries at rate 1", sink.SampledCount(), st.Queries)
	}
	if sink.DecisionCount(obs.PhaseTree) == 0 {
		t.Fatal("tz routes recorded no tree-descent decisions")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"compactroute_queries_total ",
		"compactroute_qps ",
		"compactroute_route_latency_seconds_bucket",
		"compactroute_stretch_bucket",
		`compactroute_route_decisions_total{phase="tree"}`,
		"compactroute_trace_sampled_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestLiveObsRegistry checks the live engine's registry families, including
// the churn lifecycle counters and the fallback decision counter fed by
// traced degraded routes.
func TestLiveObsRegistry(t *testing.T) {
	g := testGraph(t, 64, 9)
	build := func(gg *graph.Graph) (simnet.Scheme, error) {
		return tzroute.New(gg, tzroute.Params{K: 2, Seed: 9})
	}
	s, err := build(g)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewTraceSink(1, 32)
	sink.Register(reg)
	lv, err := NewLive(s, LiveOptions{Workers: 2, Build: build, Obs: reg, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()

	pairs := samplePairs(g.N(), 200, 13)
	lv.Query(pairs, nil)

	// Kill 10% of the edges, then route across them so the overlay records
	// dead hits and fallbacks; three passes let the busiest abandon points'
	// searches pay for their trees.
	if err := lv.ApplyUpdates(live.DeletionTrace(g, 0.1, 9)); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		lv.Query(pairs, nil)
	}
	if err := lv.Rebuild(); err != nil {
		t.Fatal(err)
	}

	st := lv.Stats()
	vals := reg.Values()
	if got := vals["compactroute_queries_total"]; got != float64(st.Queries) {
		t.Fatalf("registry queries=%v, Stats=%d", got, st.Queries)
	}
	if got := vals["compactroute_live_rebuilds_total"]; got != 1 {
		t.Fatalf("rebuilds=%v, want 1", got)
	}
	if got := vals["compactroute_live_generation"]; got != float64(st.Generation) || got != 1 {
		t.Fatalf("generation=%v, want 1", got)
	}
	if got := vals["compactroute_live_stale_served_total"]; got != float64(st.StaleServed) {
		t.Fatalf("stale served=%v, Stats=%d", got, st.StaleServed)
	}
	if got := vals["compactroute_live_swaps_total"]; got != float64(st.Swaps) {
		t.Fatalf("swaps=%v, Stats=%d", got, st.Swaps)
	}
	// No fallback builds more than one tree, and ResetStats restarts both
	// counts.
	if fb, trees := vals["compactroute_live_fallbacks_total"], vals["compactroute_live_fallback_trees_total"]; fb == 0 || trees < 1 || trees > fb {
		t.Fatalf("fallbacks=%v trees=%v, want 1 <= trees <= fallbacks", fb, trees)
	}
	lv.ResetStats()
	if after := reg.Values(); after["compactroute_live_fallbacks_total"] != 0 || after["compactroute_live_fallback_trees_total"] != 0 {
		t.Fatalf("after ResetStats: fallbacks=%v trees=%v, want 0 and 0",
			after["compactroute_live_fallbacks_total"], after["compactroute_live_fallback_trees_total"])
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"compactroute_live_fallbacks_total ",
		"compactroute_live_fallback_trees_total ",
		"compactroute_live_stale_stretch_bucket",
		"compactroute_live_repairs_total ",
		"compactroute_live_escalations_total ",
		"compactroute_live_last_rebuild_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestLatencyBuckets pins the exponential latency bucket function.
func TestLatencyBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1}, {513, 2},
		{1024, 2}, {1 << 20, 12}, {int64(256) << 27, latBuckets},
	}
	for _, c := range cases {
		if got := latBucket(c.ns); got != c.want {
			t.Errorf("latBucket(%d)=%d, want %d", c.ns, got, c.want)
		}
	}
	if latBoundNs(0) != 256 || latBoundNs(1) != 512 {
		t.Fatal("latBoundNs geometry")
	}
}
