package compactroute_test

// This file regenerates the paper's evaluation. The paper is pure theory;
// its only "table" is Table 1 (stretch / table-size tradeoffs), which the
// benchmarks below realize empirically on synthetic graphs. Each benchmark
// corresponds to one experiment id of DESIGN.md / EXPERIMENTS.md:
//
//	BenchmarkTable1          - T1:  every Table 1 row (ours + baselines)
//	BenchmarkSpaceScaling    - E2:  growth exponent of table words vs n
//	BenchmarkLemma7Sweep     - E3:  technique 1 in isolation vs eps
//	BenchmarkLemma8Sweep     - E4:  technique 2 in isolation vs eps
//	BenchmarkOracleVsRouting - E5:  distance-oracle gap
//	BenchmarkSequenceBudget  - E6:  ablation of the b = ceil(2/eps) budget
//	BenchmarkHittingSet      - E7:  greedy vs sampled hitting sets
//	BenchmarkAdjacentPairs   - E8:  Delta=1 degenerate cases of Thms 13/15
//	BenchmarkHeaderSize      - E9:  header high-water marks vs eps
//	BenchmarkParallelPipeline - E10: construction + batched-evaluation
//	                           wall-clock vs worker count
//	BenchmarkLazyScaling     - E11: construction through LazyAPSP at sizes
//	                           where the dense matrices are prohibitive
//	BenchmarkThm11Construction - E12: end-to-end preprocessing wall-clock,
//	                           the construction row of BENCH_pr3.json (the
//	                           kernel rows live in internal/graph)
//
// Metrics are attached with b.ReportMetric; the timed loop measures per-hop
// routing throughput of the preprocessed scheme.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"compactroute"
	"compactroute/internal/coloring"
	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/hitting"
	"compactroute/internal/oracle"
	"compactroute/internal/schemeutil"
	"compactroute/internal/simnet"
	"compactroute/internal/vicinity"
)

const (
	benchN     = 512
	benchSeed  = 2015 // PODC'15
	benchEps   = 0.25
	benchPairs = 2000
)

// builtScheme caches heavy preprocessing across benchmark reruns.
type builtScheme struct {
	scheme compactroute.Scheme
	apsp   *compactroute.APSP
	eval   compactroute.Evaluation
}

var benchCache sync.Map

type benchRow struct {
	name     string
	weighted bool
	build    func(g *compactroute.Graph, apsp *compactroute.APSP) (compactroute.Scheme, error)
}

func table1Rows() []benchRow {
	opt := compactroute.Options{Eps: benchEps, Seed: benchSeed}
	return []benchRow{
		{"exact-baseline", false, func(g *compactroute.Graph, _ *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewExact(g)
		}},
		{"tz-k2-stretch3", true, func(g *compactroute.Graph, _ *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
		}},
		{"tz-k3-stretch7", true, func(g *compactroute.Graph, _ *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 3, Seed: benchSeed})
		}},
		{"warmup-3+eps", true, func(g *compactroute.Graph, a *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewWarmup3(g, a, opt)
		}},
		{"thm10-2+eps,1", false, func(g *compactroute.Graph, a *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewTheorem10(g, a, opt)
		}},
		{"thm13-l3-2.33+eps,2", false, func(g *compactroute.Graph, a *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewTheorem13(g, a, compactroute.Options{Eps: benchEps, Seed: benchSeed, L: 3})
		}},
		{"thm15-l2-4+eps,2", false, func(g *compactroute.Graph, a *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewTheorem15(g, a, compactroute.Options{Eps: benchEps, Seed: benchSeed, L: 2})
		}},
		{"thm11-5+eps", true, func(g *compactroute.Graph, a *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewTheorem11(g, a, opt)
		}},
		{"thm16-k4-9+eps", true, func(g *compactroute.Graph, a *compactroute.APSP) (compactroute.Scheme, error) {
			return compactroute.NewTheorem16(g, a, compactroute.Options{Eps: benchEps, Seed: benchSeed, K: 4})
		}},
	}
}

func benchGraph(b *testing.B, n int, weighted bool) (*compactroute.Graph, *compactroute.APSP) {
	b.Helper()
	key := fmt.Sprintf("graph/%d/%v", n, weighted)
	if v, ok := benchCache.Load(key); ok {
		pair := v.([2]interface{})
		return pair[0].(*compactroute.Graph), pair[1].(*compactroute.APSP)
	}
	g, err := compactroute.GNM(n, 4*n, benchSeed, weighted, 32)
	if err != nil {
		b.Fatal(err)
	}
	apsp := compactroute.AllPairs(g)
	benchCache.Store(key, [2]interface{}{g, apsp})
	return g, apsp
}

func builtRow(b *testing.B, n int, row benchRow) *builtScheme {
	b.Helper()
	key := fmt.Sprintf("row/%d/%s", n, row.name)
	if v, ok := benchCache.Load(key); ok {
		return v.(*builtScheme)
	}
	g, apsp := benchGraph(b, n, row.weighted)
	s, err := row.build(g, apsp)
	if err != nil {
		b.Fatalf("%s: %v", row.name, err)
	}
	ev, err := compactroute.Evaluate(s, apsp, compactroute.SamplePairs(n, benchPairs, benchSeed))
	if err != nil {
		b.Fatalf("%s: %v", row.name, err)
	}
	if ev.BoundViolations != 0 {
		b.Fatalf("%s: %d stretch-bound violations", row.name, ev.BoundViolations)
	}
	bs := &builtScheme{scheme: s, apsp: apsp, eval: ev}
	benchCache.Store(key, bs)
	return bs
}

func reportEval(b *testing.B, ev compactroute.Evaluation) {
	b.Helper()
	b.ReportMetric(ev.MaxStretch, "max-stretch")
	b.ReportMetric(ev.MeanStretch, "mean-stretch")
	b.ReportMetric(ev.MaxAdditive, "max-additive")
	b.ReportMetric(float64(ev.Tables.Max), "table-max-words")
	b.ReportMetric(ev.Tables.Mean, "table-mean-words")
	b.ReportMetric(float64(ev.MaxLabel), "label-words")
	b.ReportMetric(float64(ev.MaxHeader), "header-max-words")
}

// BenchmarkTable1 regenerates every row of Table 1: measured stretch and
// per-vertex table words per scheme, plus routing throughput.
func BenchmarkTable1(b *testing.B) {
	for _, row := range table1Rows() {
		b.Run(row.name, func(b *testing.B) {
			bs := builtRow(b, benchN, row)
			nw := compactroute.NewNetwork(bs.scheme)
			pairs := compactroute.SamplePairs(benchN, 1024, benchSeed+1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportEval(b, bs.eval) // after the timed loop: ResetTimer clears metrics
		})
	}
}

// BenchmarkSpaceScaling fits the growth exponent of mean table words
// against n for the schemes with clean power-law predictions (Table 1's
// space column): thm10 ~ n^{2/3}, thm11 ~ n^{1/3}, warmup ~ n^{1/2},
// thm16-k4 ~ n^{1/4}, tz-k2 ~ n^{1/2}, tz-k3 ~ n^{1/3}.
func BenchmarkSpaceScaling(b *testing.B) {
	ns := []int{128, 256, 512, 1024}
	rows := []struct {
		row      benchRow
		expected float64
	}{
		{table1Rows()[1], 0.5},    // tz-k2
		{table1Rows()[2], 1. / 3}, // tz-k3
		{table1Rows()[3], 0.5},    // warmup
		{table1Rows()[4], 2. / 3}, // thm10
		{table1Rows()[7], 1. / 3}, // thm11
		{table1Rows()[8], 0.25},   // thm16-k4
	}
	for _, r := range rows {
		b.Run(r.row.name, func(b *testing.B) {
			xs := make([]float64, 0, len(ns))
			ys := make([]float64, 0, len(ns))
			for _, n := range ns {
				bs := builtRow(b, n, r.row)
				xs = append(xs, float64(n))
				ys = append(ys, bs.eval.Tables.Mean)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = compactroute.FitExponent(xs, ys)
			}
			b.StopTimer()
			b.ReportMetric(compactroute.FitExponent(xs, ys), "fitted-exponent")
			b.ReportMetric(r.expected, "paper-exponent")
		})
	}
}

// lemmaFixture builds the shared inputs of the technique benchmarks.
type lemmaFixture struct {
	g      *graph.Graph
	apsp   *graph.APSP
	vics   []*vicinity.Set
	partOf []int32
	reps   [][]graph.Vertex // per-color representatives, Lemma 8's relay representatives
	col    *coloring.Coloring
	q      int
}

func lemmaSetup(b *testing.B, n, q int, weighted bool) *lemmaFixture {
	b.Helper()
	key := fmt.Sprintf("lemma/%d/%d/%v", n, q, weighted)
	if v, ok := benchCache.Load(key); ok {
		return v.(*lemmaFixture)
	}
	wt := gen.Unit
	if weighted {
		wt = gen.UniformInt
	}
	g, err := gen.ConnectedGNM(gen.Config{N: n, Seed: benchSeed, Weighting: wt, MaxWeight: 32}, 4*n)
	if err != nil {
		b.Fatal(err)
	}
	apsp := graph.AllPairs(g)
	l := vicinity.InflatedSize(q, n, 1.5)
	vics, err := vicinity.BuildAll(g, l)
	if err != nil {
		b.Fatal(err)
	}
	sets := make([][]graph.Vertex, n)
	for u := range sets {
		for _, m := range vics[u].Members() {
			sets[u] = append(sets[u], m.V)
		}
	}
	col, err := coloring.New(n, q, sets, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	vc, err := schemeutil.RestoreVicinityColoring(q, l, vics, col)
	if err != nil {
		b.Fatal(err)
	}
	fx := &lemmaFixture{g: g, apsp: apsp, vics: vics, partOf: vc.PartOf, reps: vc.Reps, col: col, q: q}
	benchCache.Store(key, fx)
	return fx
}

// runScheme routes pairs and reports worst stretch + header high-water mark.
func runScheme(b *testing.B, s simnet.Scheme, apsp *graph.APSP, pairs [][2]graph.Vertex) {
	b.Helper()
	nw := simnet.NewNetwork(s)
	worst := 1.0
	header := 0
	for _, p := range pairs {
		res, err := nw.Route(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		if d := apsp.Dist(p[0], p[1]); d > 0 && res.Weight/d > worst {
			worst = res.Weight / d
		}
		if res.HeaderWords > header {
			header = res.HeaderWords
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(worst, "max-stretch")
	b.ReportMetric(float64(header), "header-max-words")
}

// samePartPairs samples routable pairs for the Lemma 7 benchmark.
func samePartPairs(fx *lemmaFixture, maxPairs int) [][2]graph.Vertex {
	var pairs [][2]graph.Vertex
	for j := 0; j < fx.q && len(pairs) < maxPairs; j++ {
		class := fx.col.Class(coloring.Color(j))
		for i := 0; i < len(class) && len(pairs) < maxPairs; i += 2 {
			for k := len(class) - 1; k > i && len(pairs) < maxPairs; k -= 3 {
				pairs = append(pairs, [2]graph.Vertex{class[i], class[k]})
			}
		}
	}
	return pairs
}

// BenchmarkLemma7Sweep exercises technique 1 in isolation across eps,
// verifying the (1+eps) bound and measuring sequence storage.
func BenchmarkLemma7Sweep(b *testing.B) {
	for _, eps := range []float64{1, 0.5, 0.25, 0.125} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			fx := lemmaSetup(b, 384, 5, true)
			in, err := core.NewIntra(core.IntraConfig{
				Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: eps,
			})
			if err != nil {
				b.Fatal(err)
			}
			s := &core.IntraScheme{In: in}
			words := 0
			for v := 0; v < fx.g.N(); v++ {
				if w := s.TableWords(graph.Vertex(v)); w > words {
					words = w
				}
			}
			runScheme(b, s, fx.apsp, samePartPairs(fx, 800))
			b.ReportMetric(float64(words), "table-max-words")
			b.ReportMetric(float64(in.Budget()), "budget-b")
		})
	}
}

// BenchmarkLemma8Sweep exercises technique 2 in isolation across eps on a
// weighted graph (the log D subsequence machinery).
func BenchmarkLemma8Sweep(b *testing.B) {
	for _, eps := range []float64{1, 0.5, 0.25} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			fx := lemmaSetup(b, 384, 5, true)
			var targets []graph.Vertex
			for v := 0; v < fx.g.N(); v += 4 {
				targets = append(targets, graph.Vertex(v))
			}
			wParts := make([][]graph.Vertex, fx.q)
			for i, w := range targets {
				wParts[i%fx.q] = append(wParts[i%fx.q], w)
			}
			in, err := core.NewInter(core.InterConfig{
				Graph: fx.g, Paths: fx.apsp, Vics: fx.vics,
				UPartOf: fx.partOf, Reps: fx.reps, WParts: wParts, Eps: eps,
			})
			if err != nil {
				b.Fatal(err)
			}
			var pairs [][2]graph.Vertex
			for j := 0; j < fx.q; j++ {
				class := fx.col.Class(coloring.Color(j))
				for i := 0; i < len(class) && len(pairs) < 800; i += 3 {
					for _, w := range wParts[j] {
						if class[i] != w {
							pairs = append(pairs, [2]graph.Vertex{class[i], w})
						}
					}
				}
			}
			runScheme(b, &core.InterScheme{In: in}, fx.apsp, pairs)
		})
	}
}

// BenchmarkOracleVsRouting measures the stretch gap between the TZ distance
// oracle (k=3: stretch 5) and the routing schemes that target the same
// regime (Theorem 11: 5+eps).
func BenchmarkOracleVsRouting(b *testing.B) {
	g, apsp := benchGraph(b, benchN, true)
	o, err := oracle.New(g, 3, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	pairs := compactroute.SamplePairs(benchN, benchPairs, benchSeed+2)
	worstO := 1.0
	for _, p := range pairs {
		est, err := o.Query(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		if d := apsp.Dist(p[0], p[1]); d > 0 && est/d > worstO {
			worstO = est / d
		}
	}
	bs := builtRow(b, benchN, table1Rows()[7]) // thm11
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Query(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(worstO, "oracle-max-stretch")
	b.ReportMetric(bs.eval.MaxStretch, "routing-max-stretch")
}

// BenchmarkSequenceBudget is ablation E6: the waypoint budget b = ceil(2/eps)
// trades header/table words against stretch. eps=2 gives b=1 (minimum
// waypoints, worst stretch bound 3d); smaller eps buys tighter paths.
func BenchmarkSequenceBudget(b *testing.B) {
	for _, eps := range []float64{2, 1, 0.5, 0.125} {
		b.Run(fmt.Sprintf("b=%d", int(2/eps+0.999)), func(b *testing.B) {
			fx := lemmaSetup(b, 384, 5, true)
			in, err := core.NewIntra(core.IntraConfig{
				Graph: fx.g, Paths: fx.apsp, Vics: fx.vics, PartOf: fx.partOf, Eps: eps,
			})
			if err != nil {
				b.Fatal(err)
			}
			s := &core.IntraScheme{In: in}
			runScheme(b, s, fx.apsp, samePartPairs(fx, 600))
			b.ReportMetric(1+eps, "stretch-bound")
		})
	}
}

// BenchmarkHittingSet is ablation E7: greedy vs sampled hitting sets over
// the same vicinities (landmark count drives the Lemma 7 tree storage).
func BenchmarkHittingSet(b *testing.B) {
	fx := lemmaSetup(b, 512, 6, false)
	sets := make([][]graph.Vertex, fx.g.N())
	for u := range sets {
		for _, m := range fx.vics[u].Members() {
			sets[u] = append(sets[u], m.V)
		}
	}
	b.Run("greedy", func(b *testing.B) {
		h, err := hitting.Greedy(fx.g.N(), sets)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hitting.Greedy(fx.g.N(), sets); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(h)), "landmarks")
	})
	b.Run("sampled", func(b *testing.B) {
		h, err := hitting.Sample(fx.g.N(), sets, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hitting.Sample(fx.g.N(), sets, benchSeed+int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(h)), "landmarks")
	})
}

// BenchmarkAdjacentPairs is E8: the Delta=1 degenerate-case bounds of
// Theorems 13/15 (paths of length <= 3+eps resp. 5+eps between neighbors).
func BenchmarkAdjacentPairs(b *testing.B) {
	for _, row := range []benchRow{table1Rows()[5], table1Rows()[6]} {
		b.Run(row.name, func(b *testing.B) {
			bs := builtRow(b, benchN, row)
			g := bs.scheme.Graph()
			var pairs [][2]compactroute.Vertex
			for u := 0; u < g.N() && len(pairs) < 3000; u++ {
				g.Neighbors(compactroute.Vertex(u), func(_ compactroute.Port, v compactroute.Vertex, _ float64) bool {
					pairs = append(pairs, [2]compactroute.Vertex{compactroute.Vertex(u), v})
					return len(pairs) < 3000
				})
			}
			ev, err := compactroute.Evaluate(bs.scheme, bs.apsp, pairs)
			if err != nil {
				b.Fatal(err)
			}
			if ev.BoundViolations != 0 {
				b.Fatalf("%d violations on adjacent pairs", ev.BoundViolations)
			}
			nw := compactroute.NewNetwork(bs.scheme)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(ev.MaxStretch, "max-routed-length-d1")
		})
	}
}

// BenchmarkParallelPipeline is E10: combined construction + evaluation
// wall-clock of the concurrent execution layer on a 2048-vertex graph,
// sweeping the worker count from 1 to all cores. Each iteration runs the
// full pipeline - APSP, Thorup-Zwick preprocessing, and the batched
// evaluation engine over 20000 sampled pairs - under the given parallelism
// cap; on a multicore machine the all-cores run should beat workers=1 by at
// least the ISSUE's 2x target. The determinism tests assert separately that
// every worker count produces an identical scheme and Evaluation.
func BenchmarkParallelPipeline(b *testing.B) {
	const n = 2048
	g, err := compactroute.GNM(n, 4*n, benchSeed, true, 32)
	if err != nil {
		b.Fatal(err)
	}
	pairs := compactroute.SamplePairs(n, 20000, benchSeed)
	workerCounts := []int{1}
	if cores := runtime.GOMAXPROCS(0); cores > 1 {
		if cores > 4 {
			workerCounts = append(workerCounts, cores/2)
		}
		workerCounts = append(workerCounts, cores)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			compactroute.SetParallelism(workers)
			defer compactroute.SetParallelism(0)
			for i := 0; i < b.N; i++ {
				apsp := compactroute.AllPairs(g)
				s, err := compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				ev, err := compactroute.EvaluateBatched(s, apsp, pairs, compactroute.EvalOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if ev.BoundViolations != 0 {
					b.Fatalf("%d stretch-bound violations", ev.BoundViolations)
				}
			}
		})
	}
}

// BenchmarkThm11Construction is the end-to-end construction row of E12: one
// full Theorem 11 preprocessing pass (vicinities, coloring, center cover,
// Lemma 7/8 cores) on a weighted graph, the workload the flat-CSR search
// kernels are measured against in BENCH_pr3.json.
func BenchmarkThm11Construction(b *testing.B) {
	const n = 512
	g, err := compactroute.GNM(n, 4*n, benchSeed, true, 32)
	if err != nil {
		b.Fatal(err)
	}
	apsp := compactroute.AllPairs(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compactroute.NewTheorem11(g, apsp, compactroute.Options{Eps: benchEps, Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// envInt reads a positive integer knob from the environment.
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// BenchmarkLazyScaling is E11: scheme construction through a LazyAPSP whose
// row cache is bounded by a configurable memory budget, at graph sizes where
// the dense all-pairs matrices are prohibitive (12 n^2 bytes: ~4.8 GB at
// n = 20000, ~30 GB at n = 50000). The default size keeps the benchmark
// runnable in a quick sweep; set E11_N (e.g. E11_N=50000) and E11_BUDGET_MB
// to reproduce the scaling experiment of EXPERIMENTS.md:
//
//	E11_N=50000 E11_BUDGET_MB=512 go test -bench LazyScaling -benchtime 1x -timeout 0
//
// The benchmark fails if the cache's peak footprint exceeds its budget; the
// reported metrics record the footprint the dense path would have needed.
func BenchmarkLazyScaling(b *testing.B) {
	n := envInt("E11_N", 4096)
	budgetMB := envInt("E11_BUDGET_MB", 64)
	g, err := compactroute.GNM(n, 4*n, benchSeed, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	var st compactroute.LazyStats
	var tableMean float64
	for i := 0; i < b.N; i++ {
		lazy := compactroute.NewLazyAPSP(g, int64(budgetMB)<<20)
		s, err := compactroute.NewTheorem11(g, lazy, compactroute.Options{Eps: 0.5, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		ev, err := compactroute.Evaluate(s, lazy, compactroute.SamplePairs(n, 200, benchSeed+5))
		if err != nil {
			b.Fatal(err)
		}
		if ev.BoundViolations != 0 {
			b.Fatalf("%d stretch-bound violations", ev.BoundViolations)
		}
		st = lazy.Stats()
		tableMean = ev.Tables.Mean
		// Regression guard on the cache accounting (an insert-before-evict
		// bug would trip it). PeakBytes is the high-water mark of the rows'
		// own bytes; it could exceed the budget only below the documented
		// one-row-per-shard floor, which every E11 configuration is far above.
		if st.PeakBytes > st.BudgetBytes {
			b.Fatalf("cache peak %d bytes exceeds budget %d", st.PeakBytes, st.BudgetBytes)
		}
	}
	b.ReportMetric(float64(n), "n")
	b.ReportMetric(12*float64(n)*float64(n)/(1<<20), "dense-hypothetical-mb")
	b.ReportMetric(float64(st.PeakBytes)/(1<<20), "cache-peak-mb")
	b.ReportMetric(float64(st.Misses), "rows-computed")
	b.ReportMetric(float64(st.Evictions), "rows-evicted")
	b.ReportMetric(float64(st.NarrowRows)/float64(max(st.CachedRows, 1)), "narrow-share")
	b.ReportMetric(tableMean, "table-mean-words")
}

// BenchmarkHeaderSize is E9: header high-water marks against the
// O((1/eps) log(nD)) bound of Theorem 11 as eps shrinks.
func BenchmarkHeaderSize(b *testing.B) {
	for _, eps := range []float64{1, 0.5, 0.25} {
		b.Run(fmt.Sprintf("thm11-eps=%v", eps), func(b *testing.B) {
			g, apsp := benchGraph(b, 256, true)
			s, err := compactroute.NewTheorem11(g, apsp, compactroute.Options{Eps: eps, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			ev, err := compactroute.Evaluate(s, apsp, compactroute.SamplePairs(256, 1000, benchSeed))
			if err != nil {
				b.Fatal(err)
			}
			nw := compactroute.NewNetwork(s)
			pairs := compactroute.SamplePairs(256, 512, benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nw.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportEval(b, ev)
		})
	}
}
