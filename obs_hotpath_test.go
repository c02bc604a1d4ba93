package compactroute_test

import (
	"strings"
	"testing"

	"compactroute"
)

// TestObsHotPathAllocs is the acceptance pin of the observability layer:
// with a metrics registry attached, a trace sink threaded through at 0%
// sampling, a route auditor shadow-verifying at a live sampling rate, and a
// flight recorder armed - the production configuration routeserve always
// runs in - the warm Query and Route paths must still not allocate on an
// empty overlay, for the exact, Thorup-Zwick and Theorem 11 schemes.
// Instrument reads are func-backed snapshots refreshed at scrape time, the
// not-sampled trace check is a hash and a compare, and a sampled audit offer
// is a value-struct send on a prefilled channel, so observability costs the
// hot path nothing beyond that.
func TestObsHotPathAllocs(t *testing.T) {
	if raceEnabled {
		// Not just instrumentation overhead: AllocsPerRun counts mallocs
		// process-wide, and under -race the audit workers' workspace pool
		// drops Puts, so the background pool misses land in the measurement.
		t.Skip("race instrumentation allocates; allocs/op is only meaningful without -race")
	}
	g, err := compactroute.GNM(96, 384, 3, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	builds := []struct {
		name  string
		build func() (compactroute.Scheme, error)
	}{
		{"exact", func() (compactroute.Scheme, error) { return compactroute.NewExact(g) }},
		{"tzroute", func() (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: 3})
		}},
		{"thm11", func() (compactroute.Scheme, error) {
			return compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: 3})
		}},
	}
	n := g.N()
	pairs := make([][2]compactroute.Vertex, 256)
	for i := range pairs {
		pairs[i] = [2]compactroute.Vertex{
			compactroute.Vertex((i * 7) % n),
			compactroute.Vertex((i*13 + 1) % n),
		}
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			reg := compactroute.NewMetricsRegistry()
			sink := compactroute.NewTraceSink(0, 64) // 0% sampling: the untraced path
			sink.Register(reg)
			audit := compactroute.NewRouteAuditor(0.25, 2, 8192)
			defer audit.Close()
			audit.Register(reg)
			fr := compactroute.NewFlightRecorder(64)
			fr.Register(reg)
			eng, err := compactroute.ServeLive(s, compactroute.LiveServeOptions{
				Workers: 2, Obs: reg, Trace: sink, Audit: audit, FlightRec: fr})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			out := make([]compactroute.LiveResult, len(pairs))
			for i := 0; i < 4; i++ {
				eng.Query(pairs, out)
			}
			audit.Flush() // warm the audit workers' workspace pool before measuring
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Query(pairs, out)
			}); allocs != 0 {
				t.Errorf("Query with obs enabled: %v allocs/op, want 0", allocs)
			}
			for i := 0; i < 32; i++ {
				eng.Route(pairs[i][0], pairs[i][1])
			}
			i := 0
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
				i++
			}); allocs != 0 {
				t.Errorf("Route with obs enabled: %v allocs/op, want 0", allocs)
			}

			// The registry was live the whole time: a scrape must see the work.
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), "compactroute_queries_total") {
				t.Fatal("scrape after alloc runs misses the query counter")
			}
			if !strings.Contains(sb.String(), "compactroute_audit_sampled_total") {
				t.Fatal("scrape misses the audit instruments")
			}
			if sink.SampledCount() != 0 {
				t.Fatalf("0%% sampling recorded %d traces", sink.SampledCount())
			}
			audit.Flush()
			st := audit.Stats()
			if st.Sampled == 0 || st.Verified == 0 {
				t.Fatalf("rate-0.25 auditor audited nothing across the alloc runs: %+v", st)
			}
			if st.Violations != 0 || st.Stale != 0 {
				t.Fatalf("auditor reported %d violations, %d stale on an honest scheme over an empty overlay", st.Violations, st.Stale)
			}
		})
	}
}

// TestTraceSamplingDeterministic pins the worker-count and run-to-run
// invariance of trace sampling: the sampled query IDs are a pure function of
// (src, dst), so two engines at different worker counts serving the same
// pairs sample the identical multiset of queries.
func TestTraceSamplingDeterministic(t *testing.T) {
	g, err := compactroute.GNM(128, 512, 11, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pairs := compactroute.SamplePairs(g.N(), 4000, 7)

	sampleIDs := func(workers int) map[string]int {
		t.Helper()
		reg := compactroute.NewMetricsRegistry()
		sink := compactroute.NewTraceSink(0.25, 8192)
		sink.Register(reg)
		eng, err := compactroute.ServeLive(s, compactroute.LiveServeOptions{
			Workers: workers, Obs: reg, Trace: sink})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.Query(pairs, nil)
		var b strings.Builder
		if err := sink.WriteJSON(&b, 8192); err != nil {
			t.Fatal(err)
		}
		ids := map[string]int{}
		for _, part := range strings.Split(b.String(), `"id":"`)[1:] {
			ids[part[:16]]++
		}
		if len(ids) == 0 {
			t.Fatal("no traces sampled at rate 0.25")
		}
		return ids
	}

	one := sampleIDs(1)
	four := sampleIDs(4)
	if len(one) != len(four) {
		t.Fatalf("sampled ID sets differ across worker counts: %d vs %d", len(one), len(four))
	}
	for id, cnt := range one {
		if four[id] != cnt {
			t.Fatalf("query %s sampled %d times at 1 worker, %d at 4", id, cnt, four[id])
		}
	}
	// And a repeat run is bit-identical.
	again := sampleIDs(4)
	for id, cnt := range four {
		if again[id] != cnt {
			t.Fatalf("query %s sampled %d then %d times across runs", id, cnt, again[id])
		}
	}
}
