package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"compactroute/internal/exact"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/obs"
	"compactroute/internal/simnet"
	"compactroute/internal/tzroute"
)

func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.ConnectedGNM(gen.Config{N: n, Seed: seed, Weighting: gen.UniformInt, MaxWeight: 16}, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func samplePairs(n, count int, seed int64) [][2]graph.Vertex {
	r := rand.New(rand.NewSource(seed))
	pairs := make([][2]graph.Vertex, 0, count)
	for len(pairs) < count {
		u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
		if u != v {
			pairs = append(pairs, [2]graph.Vertex{u, v})
		}
	}
	return pairs
}

// TestEngineMatchesNetwork pins the engine to the reference simulator: on
// an empty overlay, the batched Query and single-shot Route answers must
// equal simnet.Network.RouteReuse for every pair at every worker count -
// including the error results of a scheme that fails some routes, which the
// engine must report as routing errors, never complete by fallback.
func TestEngineMatchesNetwork(t *testing.T) {
	g := testGraph(t, 72, 7)
	base, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs := append(samplePairs(g.N(), 400, 11), [2]graph.Vertex{3, 5})
	// reference routes every pair through simnet, reusing one packet the
	// way a shard worker does.
	reference := func(s simnet.Scheme) (want []live.Result, failed int) {
		nw := simnet.NewNetwork(s)
		var pkt simnet.Packet
		for _, p := range pairs {
			r, next, err := nw.RouteReuse(p[0], p[1], pkt)
			if next != nil {
				pkt = next
			}
			want = append(want, live.Result{Src: p[0], Dst: p[1], Hops: r.Hops,
				HeaderWords: r.HeaderWords, Weight: r.Weight, Err: err})
			if err != nil {
				failed++
			}
		}
		return want, failed
	}
	same := func(got, want live.Result) bool {
		if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
			return false
		}
		got.Err, want.Err = nil, nil
		return got == want
	}
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The plain scheme reuses packets through PrepareInto; the
			// poisoned one prepares fresh packets and fails some routes.
			for _, s := range []simnet.Scheme{base, &errScheme{Scheme: base, poison: 5}} {
				want, failed := reference(s)
				eng, err := NewLive(s, LiveOptions{Workers: workers, Verify: true})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				for i, got := range eng.Query(pairs, nil) {
					if !same(got, want[i]) {
						t.Fatalf("pair %v: Query %+v, simnet %+v", pairs[i], got, want[i])
					}
				}
				wantErrs := uint64(failed)
				for _, i := range []int{0, len(pairs) - 1} {
					if got := eng.Route(pairs[i][0], pairs[i][1]); !same(got, want[i]) {
						t.Fatalf("pair %v: Route %+v, simnet %+v", pairs[i], got, want[i])
					}
					if want[i].Err != nil {
						wantErrs++
					}
				}
				st := eng.Stats()
				if _, poisoned := s.(*errScheme); poisoned == (failed == 0) || st.Errors != wantErrs {
					t.Fatalf("%d routing errors, want %d (%d failed reference routes)", st.Errors, wantErrs, failed)
				}
				if st.Queries != uint64(len(pairs))+2 || st.BoundViolations != 0 || st.StaleServed != 0 || st.Fallbacks != 0 {
					t.Fatalf("queries=%d violations=%d stale=%d fallbacks=%d, want %d/0/0/0",
						st.Queries, st.BoundViolations, st.StaleServed, st.Fallbacks, len(pairs)+2)
				}
				if st.MaxStretch > float64(4*2-5)+1e-9 {
					t.Fatalf("max stretch %v above tz-k2 bound", st.MaxStretch)
				}
			}
		})
	}
}

// errScheme wraps a scheme and fails every route whose destination is the
// poisoned vertex, exercising the engine's error accounting.
type errScheme struct {
	simnet.Scheme
	poison graph.Vertex
}

func (s *errScheme) Prepare(src, dst graph.Vertex) (simnet.Packet, error) {
	if dst == s.poison {
		return nil, fmt.Errorf("poisoned destination %d", dst)
	}
	return s.Scheme.Prepare(src, dst)
}

// TestQuantileNearestRank pins the nearest-rank definition: p99 of 10
// samples is the maximum (rank ceil(0.99*10) = 10), not rank 9.
func TestQuantileNearestRank(t *testing.T) {
	hist := make([]uint64, 128)
	hist[1] = 9
	hist[100] = 1
	if got := quantile(hist, 10, 0.99); got != 100 {
		t.Fatalf("p99 of {9x1hop, 1x100hops} = %d, want 100", got)
	}
	if got := quantile(hist, 10, 0.50); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	hist[100] = 0
	hist[1] = 1
	if got := quantile(hist, 1, 0.99); got != 1 {
		t.Fatalf("p99 of a single 1-hop sample = %d, want 1", got)
	}
}

// TestEngineFailFast pins the fail-fast batch contract: after the first
// routing failure the remaining pairs of the batch are skipped with
// ErrAborted instead of being routed.
func TestEngineFailFast(t *testing.T) {
	g := testGraph(t, 32, 3)
	base, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	s := &errScheme{Scheme: base, poison: 5}
	eng, err := NewLive(s, LiveOptions{Workers: 1, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pairs := [][2]graph.Vertex{{0, 1}, {2, 5}, {3, 4}, {6, 7}}
	out := eng.Query(pairs, nil)
	if out[0].Err != nil {
		t.Fatalf("pair 0 failed: %v", out[0].Err)
	}
	if out[1].Err == nil || errors.Is(out[1].Err, ErrAborted) {
		t.Fatalf("pair 1 should carry the real failure, got %v", out[1].Err)
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(out[i].Err, ErrAborted) {
			t.Fatalf("pair %d not aborted: %v", i, out[i].Err)
		}
	}
	if st := eng.Stats(); st.Queries != 2 {
		t.Fatalf("aborted pairs leaked into stats: %d queries", st.Queries)
	}
}

func TestEngineCountsErrors(t *testing.T) {
	g := testGraph(t, 32, 3)
	base, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	s := &errScheme{Scheme: base, poison: 5}
	eng, err := NewLive(s, LiveOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pairs := [][2]graph.Vertex{{0, 1}, {2, 5}, {3, 4}, {9, 5}}
	out := eng.Query(pairs, nil)
	for i, r := range out {
		wantErr := pairs[i][1] == 5
		if (r.Err != nil) != wantErr || r.Fallback {
			t.Fatalf("pair %d: err = %v fallback = %v, want error %v", i, r.Err, r.Fallback, wantErr)
		}
	}
	st := eng.Stats()
	if st.Queries != 4 || st.Errors != 2 || st.Unverified != 2 {
		t.Fatalf("stats = %+v, want 4 queries, 2 errors, 2 unverified", st)
	}
}

// TestEngineRejectsOutOfRangePairs pins the engine's input validation: the
// engine fronts untrusted protocol input, so an out-of-range vertex id must
// surface as a Result error, never a panic in the scheme's table lookup.
func TestEngineRejectsOutOfRangePairs(t *testing.T) {
	g := testGraph(t, 16, 1)
	s, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLive(s, LiveOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, p := range [][2]graph.Vertex{{0, 16}, {16, 0}, {-1, 3}, {3, -1}} {
		if r := eng.Route(p[0], p[1]); r.Err == nil {
			t.Fatalf("pair %v accepted", p)
		}
	}
	if st := eng.Stats(); st.Errors != 4 {
		t.Fatalf("errors = %d, want 4", st.Errors)
	}
}

// TestEngineStatsQuantiles checks the hop histogram quantiles on a routed
// workload: p50 <= p99, both within the observed hop range, and the stretch
// histogram accounts for every verified positive-distance delivery.
func TestEngineStatsQuantiles(t *testing.T) {
	g := testGraph(t, 96, 5)
	s, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLive(s, LiveOptions{Workers: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pairs := samplePairs(g.N(), 1000, 23)
	out := eng.Query(pairs, nil)
	maxHops := 0
	for _, r := range out {
		if r.Hops > maxHops {
			maxHops = r.Hops
		}
	}
	st := eng.Stats()
	if st.P50Hops > st.P99Hops || st.P99Hops > maxHops {
		t.Fatalf("quantiles p50=%d p99=%d maxHops=%d out of order", st.P50Hops, st.P99Hops, maxHops)
	}
	if st.MeanHops <= 0 {
		t.Fatalf("mean hops %v", st.MeanHops)
	}
	var histSum uint64
	for _, c := range st.StretchHist {
		histSum += c
	}
	if histSum != st.Queries-st.Errors {
		t.Fatalf("stretch histogram sums to %d, want %d deliveries", histSum, st.Queries-st.Errors)
	}
	// Exact routing is stretch 1: everything lands in the first bucket.
	if st.StretchHist[0] != histSum || st.MaxStretch > 1+1e-9 {
		t.Fatalf("exact scheme produced stretch above 1: hist[0]=%d max=%v", st.StretchHist[0], st.MaxStretch)
	}
	eng.ResetStats()
	if st2 := eng.Stats(); st2.Queries != 0 {
		t.Fatalf("ResetStats left %d queries", st2.Queries)
	}
}

// TestStatsResetConcurrent exercises Stats, ResetStats and Route from
// concurrent goroutines; it exists for the race detector (the QPS clock
// origin is the one piece of engine state outside the shard mutexes).
func TestStatsResetConcurrent(t *testing.T) {
	g := testGraph(t, 32, 9)
	s, err := exact.New(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLive(s, LiveOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				switch i {
				case 0:
					eng.ResetStats()
				case 1:
					_ = eng.Stats()
				default:
					_ = eng.Route(graph.Vertex(j%32), graph.Vertex((j+1)%32))
				}
			}
		}(i)
	}
	wg.Wait()
}

// BenchmarkEngineQuery is the serving-throughput benchmark behind
// experiment E13: a fixed batch of queries served at several worker counts.
func BenchmarkEngineQuery(b *testing.B) {
	g := testGraph(b, 512, 2015)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 2015})
	if err != nil {
		b.Fatal(err)
	}
	pairs := samplePairs(g.N(), 8192, 99)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := NewLive(s, LiveOptions{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			out := make([]live.Result, len(pairs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Query(pairs, out)
			}
			b.StopTimer()
			st := eng.Stats()
			if st.Errors != 0 {
				b.Fatalf("%d routing errors", st.Errors)
			}
			b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkEngineQueryObs is the A/B counterpart behind experiment E18: the
// same batch as BenchmarkEngineQuery with a metrics registry and a trace
// sink attached in routeserve's production configuration (0% sampling).
// Comparing the two quantifies the observability overhead on the hot path;
// the structural claim (0 allocs/op either way) is pinned separately by
// TestObsHotPathAllocs.
func BenchmarkEngineQueryObs(b *testing.B) {
	g := testGraph(b, 512, 2015)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 2015})
	if err != nil {
		b.Fatal(err)
	}
	pairs := samplePairs(g.N(), 8192, 99)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			reg := obs.NewRegistry()
			sink := obs.NewTraceSink(0, 64)
			sink.Register(reg)
			eng, err := NewLive(s, LiveOptions{Workers: workers, Obs: reg, Trace: sink})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			out := make([]live.Result, len(pairs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Query(pairs, out)
			}
			b.StopTimer()
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil || !strings.Contains(sb.String(), "compactroute_queries_total") {
				b.Fatalf("scrape after benchmark broken: %v", err)
			}
			b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}
