// benchgate makes serving speed a tested invariant: it compares a candidate
// benchmark run against a recorded BENCH_*.json baseline and exits non-zero
// when any shared metric regresses past the tolerance band.
//
// Two modes:
//
//	benchgate -baseline BENCH_pr4.json -candidate BENCH_pr6.json
//	    File mode: gate one recorded trajectory against another (hermetic;
//	    this is what the negative-path CI check feeds a synthetically
//	    regressed file to).
//
//	benchgate -baseline BENCH_pr4.json -schemes exact,tz-k2 -n 1000
//	    Measure mode: rebuild the pinned benchmark subset with the exact
//	    routebench workload (GNM graph, seed, eps), serve -queries uniform
//	    pairs through the batched engine hot path, and gate the fresh
//	    qps/ns-per-op/allocs-per-op against the baseline. Snapshot-capable
//	    schemes additionally get cold-start load (decode vs mmap, loadms/
//	    keys) and on-disk footprint (bytes/ keys) measured from a saved
//	    snapshot. -write saves the measured points as the next BENCH file.
//	    -audit-sample attaches the shadow route auditor to the timed
//	    loop, so the gate also proves the auditor's overhead stays inside the
//	    tolerance band and that it charges zero violations on honest schemes.
//
// Exit status: 0 pass, 1 regression, 2 usage or measurement error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"compactroute"
	"compactroute/internal/benchtrack"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// row ties a routebench row name to its construction recipe; the subset here
// covers the schemes the serving benchmarks record.
type row struct {
	name     string
	weighted bool
	build    func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error)
}

func rows() []row {
	return []row{
		{"exact", false, func(g *compactroute.Graph, _ compactroute.PathSource, _ float64, _ int64) (compactroute.Scheme, error) {
			return compactroute.NewExact(g)
		}},
		{"tz-k2", true, func(g *compactroute.Graph, _ compactroute.PathSource, _ float64, seed int64) (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: seed})
		}},
		{"warmup", true, func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
			return compactroute.NewWarmup3(g, a, compactroute.Options{Eps: eps, Seed: seed})
		}},
		{"thm11", true, func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
			return compactroute.NewTheorem11(g, a, compactroute.Options{Eps: eps, Seed: seed})
		}},
	}
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		baseline     = fs.String("baseline", "", "baseline BENCH_*.json (required)")
		candidate    = fs.String("candidate", "", "candidate BENCH_*.json; empty = measure fresh")
		tolerance    = fs.Float64("tolerance", 0.15, "relative tolerance band per metric")
		n            = fs.Int("n", 1000, "measure: graph size (m = 4n)")
		queries      = fs.Int("queries", 100000, "measure: served queries per scheme")
		batch        = fs.Int("batch", 4096, "measure: Query batch size")
		schemes      = fs.String("schemes", "exact,tz-k2", "measure: comma-separated rows (exact, tz-k2, warmup, thm11)")
		seed         = fs.Int64("seed", 2015, "measure: graph/scheme seed (matches routebench)")
		eps          = fs.Float64("eps", 0.25, "measure: eps of the eps-schemes")
		workers      = fs.Int("workers", 1, "measure: engine shards")
		budget       = fs.Int64("mem-budget", 512, "measure: lazy path-source budget in MiB")
		write        = fs.String("write", "", "measure: write the measured points to this BENCH file")
		pr           = fs.Int("pr", 0, "measure: pr number recorded in -write output")
		auditRate    = fs.Float64("audit-sample", 0, "measure: attach a shadow route auditor at this sample rate (0 = off); any audited violation is a measurement error")
		repairN      = fs.Int("repair-n", 0, "measure: also soak the thm11 incremental-repair path on a graph of this size (0 = skip)")
		repairBatch  = fs.Int("repair-batch", 1, "measure: churn ops applied per repair phase of the soak")
		repairPhases = fs.Int("repair-phases", 2, "measure: repair phases of the soak (each bit-identity checked)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseline == "" {
		fmt.Fprintln(out, "benchgate: -baseline is required")
		return 2
	}
	base, err := benchtrack.ParseFile(*baseline)
	if err != nil {
		fmt.Fprintf(out, "benchgate: %v\n", err)
		return 2
	}

	var cand *benchtrack.Trajectory
	if *candidate != "" {
		if cand, err = benchtrack.ParseFile(*candidate); err != nil {
			fmt.Fprintf(out, "benchgate: %v\n", err)
			return 2
		}
	} else {
		points, err := measure(out, strings.Split(*schemes, ","), *n, *queries, *batch, *workers, *seed, *eps, *budget, *auditRate)
		if err != nil {
			fmt.Fprintf(out, "benchgate: %v\n", err)
			return 2
		}
		if *repairN > 0 {
			rep, err := measureRepair(out, *repairN, *repairBatch, *repairPhases, *seed, *eps, *budget)
			if err != nil {
				fmt.Fprintf(out, "benchgate: %v\n", err)
				return 2
			}
			points = append(points, rep)
		}
		if *write != "" {
			meta := map[string]any{
				"date":   time.Now().Format("2006-01-02"),
				"go":     runtime.Version(),
				"method": "cmd/benchgate measure mode: routebench workload (GNM n/4n, seed 2015), batched LiveEngine.Query closed loop, allocs from runtime Mallocs delta; snapshot load paths timed on a freshly saved file",
			}
			if err := benchtrack.WriteFile(*write, *pr, meta, points); err != nil {
				fmt.Fprintf(out, "benchgate: %v\n", err)
				return 2
			}
			fmt.Fprintf(out, "wrote %s\n", *write)
		}
		// Round-trip through the parser so the gate sees exactly what a
		// future run will read back from the written file.
		doc, err := json.Marshal(map[string]any{"points": points})
		if err != nil {
			fmt.Fprintf(out, "benchgate: %v\n", err)
			return 2
		}
		if cand, err = benchtrack.Parse(doc, "measured"); err != nil {
			fmt.Fprintf(out, "benchgate: %v\n", err)
			return 2
		}
	}

	regs, compared, err := benchtrack.Compare(base, cand, *tolerance)
	if err != nil {
		fmt.Fprintf(out, "benchgate: %v\n", err)
		return 2
	}
	if len(regs) > 0 {
		fmt.Fprintf(out, "FAIL: %d regression(s) vs %s (tolerance %.0f%%, %d comparisons):\n",
			len(regs), base.File, *tolerance*100, compared)
		for _, r := range regs {
			fmt.Fprintf(out, "  %s\n", r)
		}
		return 1
	}
	fmt.Fprintf(out, "PASS: %d comparisons vs %s within %.0f%%\n", compared, base.File, *tolerance*100)
	return 0
}

// measure rebuilds each requested scheme on the routebench workload, serves
// the batched hot path (qps, ns/op, allocs/op), and - for snapshot-capable
// schemes - measures the snapshot's cold-start load paths and footprint.
// When auditRate > 0 a shadow route auditor rides the whole serving loop:
// the timed numbers are then measured with auditing attached (the overhead
// the gate is asked to tolerate), and any audited violation or unbalanced
// audit ledger is a measurement error.
func measure(out io.Writer, names []string, n, queries, batch, workers int, seed int64, eps float64, budgetMiB int64, auditRate float64) ([]benchtrack.Point, error) {
	byName := map[string]row{}
	for _, r := range rows() {
		byName[r.name] = r
	}
	var points []benchtrack.Point
	for _, name := range names {
		name = strings.TrimSpace(name)
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown scheme row %q", name)
		}
		g, err := compactroute.GNM(n, 4*n, seed, r.weighted, 32)
		if err != nil {
			return nil, err
		}
		paths := compactroute.NewLazyAPSP(g, budgetMiB<<20)
		t0 := time.Now()
		s, err := r.build(g, paths, eps, seed)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		fmt.Fprintf(out, "built %s (n=%d) in %.1fs\n", s.Name(), n, time.Since(t0).Seconds())
		p, auditLine, err := serveRecord(s, queries, batch, workers, seed, auditRate)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		fmt.Fprintf(out, "  %s: %.0f qps, %.0f ns/op, %.3f allocs/op\n", s.Name(), p.Metrics["qps"], p.Metrics["ns_per_op"], p.Metrics["allocs_per_op"])
		if auditLine != "" {
			fmt.Fprintf(out, "  %s audit: %s\n", s.Name(), auditLine)
		}
		if compactroute.SnapshotKind(s) != "" {
			snap, err := measureSnapshot(out, name, s)
			if err != nil {
				return nil, fmt.Errorf("snapshot %s: %w", name, err)
			}
			points = append(points, snap...)
		}
	}
	return points, nil
}

// measureSnapshot saves s to a temp file and times the two cold-start load
// paths: "decode" (read the whole stream, decode on the heap) and "mmap"
// (map the file, alias the fixed-width sections). Keys use the row name, not
// s.Name(), so the trajectory is stable across stretch-annotation changes.
func measureSnapshot(out io.Writer, name string, s compactroute.Scheme) ([]benchtrack.Point, error) {
	dir, err := os.MkdirTemp("", "benchgate-snap")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := dir + "/scheme.snap"
	if err := compactroute.SaveSchemeFile(path, s); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	n := s.Graph().N()

	t0 := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds, err := compactroute.LoadScheme(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	decodeMs := float64(time.Since(t0).Nanoseconds()) / 1e6

	t0 = time.Now()
	sf, err := compactroute.OpenSchemeFile(path)
	if err != nil {
		return nil, err
	}
	mmapMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	defer sf.Close()

	words := 0
	for v := 0; v < n; v++ {
		words += ds.TableWords(compactroute.Vertex(v))
	}
	bytesPerWord := float64(st.Size()) / float64(words)
	fmt.Fprintf(out, "  %s snapshot: %d bytes (%.2f B/word), load decode %.1fms mmap %.1fms\n",
		name, st.Size(), bytesPerWord, decodeMs, mmapMs)
	return []benchtrack.Point{
		{Key: benchtrack.LoadKey(name, n, "decode"), Metrics: map[string]float64{"load_ms": decodeMs}},
		{Key: benchtrack.LoadKey(name, n, "mmap"), Metrics: map[string]float64{"load_ms": mmapMs}},
		{Key: benchtrack.SizeKey(name, n), Metrics: map[string]float64{
			"snapshot_bytes": float64(st.Size()), "bytes_per_word": bytesPerWord}},
	}, nil
}

// measureRepair is the incremental-repair soak (the gate-sized slice of the
// routebench -churn -repair experiment): build the Theorem 11 scheme, apply
// a deletion trace in batches, repair in place after each batch, and require
// every repaired generation to serialize bit-identically to a from-scratch
// build on the same churned graph. It records the mean per-phase repair and
// rebuild latencies; a divergence is a measurement error (exit 2), because a
// wrong repair must never be reported as a fast one.
func measureRepair(out io.Writer, n, batch, phases int, seed int64, eps float64, budgetMiB int64) (benchtrack.Point, error) {
	g, err := compactroute.GNM(n, 4*n, seed, true, 32)
	if err != nil {
		return benchtrack.Point{}, err
	}
	opts := compactroute.Options{Eps: eps, Seed: seed}
	build, repairFn, err := compactroute.RepairFuncFor("thm11/v2", opts, int(budgetMiB))
	if err != nil {
		return benchtrack.Point{}, err
	}
	refBuild, err := compactroute.RebuildFuncFor("thm11/v2", opts, int(budgetMiB))
	if err != nil {
		return benchtrack.Point{}, err
	}
	t0 := time.Now()
	scheme, err := build(g)
	if err != nil {
		return benchtrack.Point{}, err
	}
	fmt.Fprintf(out, "repair soak: built %s (n=%d) in %.1fs\n", scheme.Name(), n, time.Since(t0).Seconds())
	eng, err := compactroute.ServeLive(scheme, compactroute.LiveServeOptions{
		Workers: 1, Build: build, Repair: repairFn,
	})
	if err != nil {
		return benchtrack.Point{}, err
	}
	defer eng.Close()
	trace := compactroute.DeletionTrace(g, 0.10, seed+1)
	if batch < 1 {
		batch = 1
	}
	if maxPhases := (len(trace) + batch - 1) / batch; phases <= 0 || phases > maxPhases {
		phases = maxPhases
	}
	var repairTotal, fullTotal time.Duration
	escalations := 0
	for phase := 0; phase < phases; phase++ {
		lo := phase * batch
		hi := min(lo+batch, len(trace))
		if err := eng.ApplyUpdates(trace[lo:hi]); err != nil {
			return benchtrack.Point{}, err
		}
		repairStart := time.Now()
		if repairErr := eng.Repair(); repairErr != nil {
			escalations++
			if err := eng.Rebuild(); err != nil {
				return benchtrack.Point{}, fmt.Errorf("repair soak phase %d: repair (%v) and rebuild both failed: %w", phase+1, repairErr, err)
			}
		}
		repairTotal += time.Since(repairStart)
		churned := eng.Scheme().Graph()
		fullStart := time.Now()
		ref, err := refBuild(churned)
		if err != nil {
			return benchtrack.Point{}, err
		}
		fullTotal += time.Since(fullStart)
		var got, want bytes.Buffer
		if err := compactroute.SaveScheme(&got, eng.Scheme()); err != nil {
			return benchtrack.Point{}, err
		}
		if err := compactroute.SaveScheme(&want, ref); err != nil {
			return benchtrack.Point{}, err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return benchtrack.Point{}, fmt.Errorf("repair soak phase %d: repaired scheme diverges from the from-scratch build (%d vs %d snapshot bytes)",
				phase+1, got.Len(), want.Len())
		}
	}
	repairMs := float64(repairTotal.Nanoseconds()) / 1e6 / float64(phases)
	fullMs := float64(fullTotal.Nanoseconds()) / 1e6 / float64(phases)
	fmt.Fprintf(out, "  thm11 repair: %.1f ms/phase vs %.1f ms full rebuild (batch=%d, %d phases, %d escalations, all bit-identical)\n",
		repairMs, fullMs, batch, phases, escalations)
	return benchtrack.Point{Key: benchtrack.RepairKey("thm11", n, batch), Metrics: map[string]float64{
		"repair_ms": repairMs, "full_rebuild_ms": fullMs, "escalations": float64(escalations)}}, nil
}

// serveRecord drives the batched Query hot path: one warm-up batch, then a
// timed closed loop with alloc accounting from the runtime's Mallocs delta.
// Any routing error is a measurement error: a scheme that cannot route has
// no throughput to record. With auditRate > 0 the loop runs with a shadow
// auditor attached; the returned auditLine summarizes its census ("" when
// auditing is off).
func serveRecord(s compactroute.Scheme, queries, batch, workers int, seed int64, auditRate float64) (p benchtrack.Point, auditLine string, err error) {
	opts := compactroute.LiveServeOptions{Workers: workers, PinWorkers: true}
	var aud *compactroute.RouteAuditor
	if auditRate > 0 {
		aud = compactroute.NewRouteAuditor(auditRate, 1, 8192)
		defer aud.Close()
		opts.Audit = aud
	}
	eng, err := compactroute.ServeLive(s, opts)
	if err != nil {
		return p, "", err
	}
	defer eng.Close()
	n := s.Graph().N()
	// Pairs are pregenerated outside the timed loop, the methodology
	// BENCH_pr4.json was recorded with, so the points stay comparable
	// across PRs.
	pairs := compactroute.SamplePairs(n, queries, seed+77)
	if len(pairs) == 0 {
		return p, "", fmt.Errorf("graph too small to sample pairs")
	}
	outBuf := make([]compactroute.LiveResult, min(batch, len(pairs)))
	for lo := 0; lo < len(pairs) && lo < 4*batch; lo += batch { // warm packet scratch and stats chunks
		eng.Query(pairs[lo:min(lo+batch, len(pairs))], outBuf)
	}
	if aud != nil {
		aud.Flush() // drain warm-up audits outside the timed window
	}
	eng.ResetStats()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	served := 0
	t0 := time.Now()
	for lo := 0; lo < len(pairs); lo += batch {
		hi := min(lo+batch, len(pairs))
		for _, res := range eng.Query(pairs[lo:hi], outBuf) {
			if res.Err != nil {
				return p, "", fmt.Errorf("%s: route %d->%d: %w", s.Name(), res.Src, res.Dst, res.Err)
			}
		}
		served += hi - lo
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)

	// Noise floor: runtime background goroutines (timers, GC workers)
	// allocate a handful of objects regardless of the workload, and gating a
	// relative band on a 5-malloc delta flags machines, not code. A real
	// per-query allocation costs at least `served` mallocs (~5 orders above
	// the floor), so flooring tiny absolute deltas to the recorded
	// zero-alloc state loses no regression the gate should catch.
	mallocs := m1.Mallocs - m0.Mallocs
	if mallocs <= 64 {
		mallocs = 0
	}

	if aud != nil {
		aud.Flush()
		ast := aud.Stats()
		if ast.Violations != 0 {
			return p, "", fmt.Errorf("%s: shadow audit charged %d violations over %d sampled queries", s.Name(), ast.Violations, ast.Sampled)
		}
		if ast.Verified+ast.Stale+ast.Dropped != ast.Sampled {
			return p, "", fmt.Errorf("%s: audit ledger does not balance: %+v", s.Name(), ast)
		}
		auditLine = fmt.Sprintf("sampled=%d verified=%d dropped=%d viol=0", ast.Sampled, ast.Verified, ast.Dropped)
	}

	// qps, ns_per_op and allocs_per_op are gated; the rest is informational.
	st := eng.Stats()
	p = benchtrack.Point{Key: benchtrack.QPSKey(s.Name(), n, workers), Metrics: map[string]float64{
		"qps":           float64(served) / elapsed.Seconds(),
		"ns_per_op":     float64(elapsed.Nanoseconds()) / float64(served),
		"allocs_per_op": float64(mallocs) / float64(served),
		"m":             float64(s.Graph().M()),
		"queries":       float64(served),
		"elapsed_sec":   elapsed.Seconds(),
		"mean_hops":     st.MeanHops,
		"p50_hops":      float64(st.P50Hops),
		"p99_hops":      float64(st.P99Hops),
	}}
	return p, auditLine, nil
}
