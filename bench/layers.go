package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"compactroute"
)

// runWorkload prepares one workload, runs the untraced pass (end-to-end
// metrics) and, when tracing, the traced pass plus the in-process layer
// measurements (per-layer metrics), and checks every pass's output. It also
// returns the workload's state, which holds the reference answers.
func runWorkload(ctx context.Context, cfg config, w workload) (*result, *state, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	fmt.Fprintf(cfg.log, "# %s: building the thm11 snapshot\n", w.name)
	st, err := prepare(cfg, w, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	fmt.Fprintf(cfg.log, "# %s: n=%d m=%d, %s built in %.2fs, seed %d, %s of load per pass\n",
		w.name, st.n, 4*st.n, st.kind, st.build.Seconds(), cfg.seed, cfg.load)
	plain, err := wirePass(ctx, cfg, st, nil, cfg.setups)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced pass: %w", err)
	}
	var traced *passStats
	if cfg.traced {
		if traced, err = wirePass(ctx, cfg, st, tr, 1); err != nil {
			return nil, nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	var rep *replayOut
	if w.churn > 0 {
		if rep, err = replay(st, tr); err != nil {
			return nil, nil, fmt.Errorf("in-process churn replay: %w", err)
		}
	}

	res := &result{workload: w.name, spans: tr, attempted: plain.attempted, failed: plain.failed,
		checked: plain.checkLines}
	stretch, checkErr := st.verify(plain, rep)
	if traced != nil {
		res.attempted += traced.attempted
		res.failed += traced.failed
		if _, err := st.verify(traced, rep); checkErr == nil && err != nil {
			checkErr = fmt.Errorf("traced pass: %w", err)
		}
	}
	res.checkErr = checkErr
	fmt.Fprintf(cfg.log, "# %s: routeserve's final %s\n", w.name, plain.stats)
	res.e2e = e2eMetrics(st, plain, stretch)
	bidi := calibrate(tr)
	if cfg.traced {
		ld, err := measureLayers(st, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("layers: %w", err)
		}
		ld.bidi = bidi
		res.layer = layerMetrics(cfg, st, plain, traced, ld, rep)
	} else {
		fmt.Fprintf(cfg.log, "# calibration graph.bidi_us=%.4g\n", us(bidi))
	}
	res.report(cfg.log)
	return res, st, nil
}

func e2eMetrics(st *state, ps *passStats, stretch float64) []metric {
	setup := make([]float64, len(ps.setup))
	for i, d := range ps.setup {
		setup[i] = d.Seconds()
	}
	qpsNote := fmt.Sprintf("%d replies in pipelined windows", ps.qpsReplies)
	rttNote := fmt.Sprintf("%d depth-1 round trips", len(ps.rtt))
	if st.w.churn > 0 {
		qpsNote = "the depth-1 reader beside the churn"
		rttNote = fmt.Sprintf("%d reader round trips beside the churn", len(ps.rtt))
	}
	return []metric{
		{"setup_s", median(setup), "s", fmt.Sprintf("median of %d starts", len(setup))},
		{"route_qps", ps.qps(), "1/s", qpsNote},
		{"route_rtt_p50_us", quantile(ps.rtt, 0.50), "us", rttNote},
		{"route_rtt_p99_us", quantile(ps.rtt, 0.99), "us", rttNote},
		{"stretch_mean", stretch, "ratio", fmt.Sprintf("%d checked pairs", st.nCheck())},
		{"server_rss_mb", ps.rssMB, "MB", "VmHWM at exit"},
	}
}

// layerData is what the in-process layer measurements produced.
type layerData struct {
	route, fallbackRoute        []time.Duration
	queryQPS, allocsPerQuery    float64
	decisions                   map[string]uint64
	decisionsTotal              uint64
	hopsMean                    float64
	headerMax                   int
	snapMB                      float64
	loadHeap, loadMmap          []time.Duration
	mapDur, parseDur, decodeDur []time.Duration
	bidi                        time.Duration
}

// measureLayers calls each layer's exported functions on the workload's
// snapshot, overlay and pairs, one span per call.
func measureLayers(st *state, tr *tracer) (*layerData, error) {
	sp := tr.begin("layers", 0)
	defer sp.end()
	ld := &layerData{decisions: map[string]uint64{}}

	// internal/serve: one Route at a time, then 4096-pair Query batches.
	for i, p := range st.pairs[:layerPairs] {
		d := tr.timed("serve.Live.Route", sp.id, func() { st.ref.Route(p[0], p[1]) })
		ld.route = append(ld.route, d)
		if st.want[i].Fallback {
			ld.fallbackRoute = append(ld.fallbackRoute, d)
		}
	}
	const batch, batches = 4096, 3
	out := make([]compactroute.LiveResult, batch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var busy time.Duration
	for b := 0; b < batches; b++ {
		pairs := st.pairs[b*batch : (b+1)*batch]
		busy += tr.timed("serve.Live.Query", sp.id, func() { st.ref.Query(pairs, out) })
	}
	runtime.ReadMemStats(&after)
	ld.queryQPS = batch * batches / busy.Seconds()
	ld.allocsPerQuery = float64(after.Mallocs-before.Mallocs) / (batch * batches)

	// Scheme walk: the per-hop decision census of a rate-1 trace sink.
	sink := compactroute.NewTraceSink(1, 256)
	eng, err := compactroute.LoadLiveStateFile(st.snap, compactroute.LiveServeOptions{Workers: serveWorkers, Trace: sink})
	if err != nil {
		return nil, err
	}
	var hops int
	tr.timed("scheme.census", sp.id, func() {
		for _, p := range st.pairs[:layerPairs] {
			r := eng.Route(p[0], p[1])
			hops += r.Hops
			ld.headerMax = max(ld.headerMax, r.HeaderWords)
		}
	})
	ld.hopsMean = float64(hops) / layerPairs
	for i, name := range compactroute.RoutePhaseNames() {
		c := sink.DecisionCount(compactroute.RoutePhase(i))
		ld.decisions[name] = c
		ld.decisionsTotal += c
	}

	// internal/wire: the heap decode routeserve -live takes, and the mmap
	// path with its map/parse/decode split.
	info, err := os.Stat(st.snap)
	if err != nil {
		return nil, err
	}
	ld.snapMB = float64(info.Size()) / 1e6
	var events []compactroute.SnapshotLoadEvent
	compactroute.SetSnapshotLoadObserver(func(ev compactroute.SnapshotLoadEvent) { events = append(events, ev) })
	defer compactroute.SetSnapshotLoadObserver(nil)
	for i := 0; i < 3; i++ {
		ld.loadHeap = append(ld.loadHeap, tr.timed("wire.LoadScheme", sp.id, func() {
			var f *os.File
			if f, err = os.Open(st.snap); err == nil {
				_, err = compactroute.LoadScheme(f)
				f.Close()
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	events = events[:0]
	for i := 0; i < 3; i++ {
		var sf *compactroute.SchemeFile
		ld.loadMmap = append(ld.loadMmap, tr.timed("wire.OpenSchemeFile", sp.id, func() {
			sf, err = compactroute.OpenSchemeFile(st.snap)
		}))
		if err != nil {
			return nil, err
		}
		sf.Close()
	}
	for _, ev := range events {
		ld.mapDur = append(ld.mapDur, ev.Map)
		ld.parseDur = append(ld.parseDur, ev.Parse)
		ld.decodeDur = append(ld.decodeDur, ev.Decode)
	}
	return ld, nil
}

// calibrate times the ROADMAP's reference kernel, BoundedBidiDist on a
// fixed graph and pair set, so CPU drift between runs shows; it returns the
// mean time per call.
func calibrate(tr *tracer) time.Duration {
	sp := tr.begin("calibrate", 0)
	defer sp.end()
	const n = 10000
	g, err := compactroute.GNM(n, 4*n, schemeSeed, true, 32)
	if err != nil {
		panic(err) // fixed, valid arguments
	}
	pairs := compactroute.SamplePairs(n, 2000, schemeSeed)
	var busy time.Duration
	for _, p := range pairs {
		busy += tr.timed("graph.BoundedBidiDist", sp.id, func() { g.BoundedBidiDist(p[0], p[1], math.Inf(1)) })
	}
	return busy / time.Duration(len(pairs))
}

// medianMs returns the median of ds in milliseconds.
func medianMs(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// layerMetrics assembles the per-layer metrics. Every workload reports
// every metric; a layer the workload does not exercise reads 0.
func layerMetrics(cfg config, st *state, plain, traced *passStats, ld *layerData, rep *replayOut) []metric {
	route := sortDurs(ld.route)
	routeP50 := quantile(route, 0.50)
	rttP50 := quantile(plain.rtt, 0.50)
	noopMean := meanDur(traced.noop)
	rttMean := meanDur(plain.rtt)
	addRoute := math.Abs(float64(rttMean-(noopMean+meanDur(ld.route)))) / float64(rttMean)

	apply, counts := st.apply, st.counts
	var refreshWire, refreshProc, addRefresh float64
	var repairs, escalations, dirtyVics, dirtySeqs float64
	if rep != nil {
		apply, counts = rep.apply, rep.counts
		wire, proc := meanDur(plain.admin.refresh), meanDur(rep.refresh)
		refreshWire, refreshProc = ms(wire), ms(proc)
		addRefresh = math.Abs(float64(wire-(proc+noopMean))) / float64(wire)
		repairs, escalations = float64(rep.repairs), float64(rep.escalations)
		dirtyVics, dirtySeqs = mean(rep.dirtyVics), mean(rep.dirtySeqs)
	}
	share := func(phase string) float64 {
		if ld.decisionsTotal == 0 {
			return 0
		}
		return float64(ld.decisions[phase]) / float64(ld.decisionsTotal)
	}
	var staleFrac float64
	if plain.replies > 0 {
		staleFrac = float64(plain.stale) / float64(plain.replies)
	}
	clean := st.w.delFrac == 0 && st.w.churn == 0
	if clean && addRoute > 0.1 {
		fmt.Fprintf(cfg.log, "# warning: %s: depth-1 RTT %.2fus vs noop RTT + Route %.2fus: layers miss the total by %.1f%%\n",
			st.w.name, us(rttMean), us(noopMean+meanDur(ld.route)), 100*addRoute)
	}
	if rep != nil && addRefresh > 0.1 {
		fmt.Fprintf(cfg.log, "# warning: %s: wire refresh %.1fms vs in-process Refresh + noop RTT %.1fms: layers miss the total by %.1f%%\n",
			st.w.name, refreshWire, refreshProc+ms(noopMean), 100*addRefresh)
	}
	noop := sortDurs(traced.noop)
	perReply := float64(plain.bytes) / float64(max(1, plain.replies+plain.failed))
	return []metric{
		{"routeserve.noop_rtt_us_p50", quantile(noop, 0.50), "us", fmt.Sprintf("%d samples", len(noop))},
		{"routeserve.overhead_us_p50", rttP50 - routeP50, "us", "route_rtt_p50_us - serve.route_us_p50"},
		{"routeserve.reply_bytes_mean", perReply, "B", ""},
		{"serve.route_us_p50", routeP50, "us", fmt.Sprintf("%d LiveEngine.Route calls", len(route))},
		{"serve.route_us_p99", quantile(route, 0.99), "us", ""},
		{"serve.query_qps", ld.queryQPS, "1/s", "LiveEngine.Query, 4096-pair batches"},
		{"serve.allocs_per_query", ld.allocsPerQuery, "count", ""},
		{"live.fallback_per_query", counts.per(counts.fallbacks), "ratio", fmt.Sprintf("%d routes", counts.queries)},
		{"live.detour_per_query", counts.per(counts.detours), "ratio", ""},
		{"live.dead_hits_per_query", counts.per(counts.deadHits), "ratio", ""},
		{"live.fallback_route_us_p50", quantile(sortDurs(ld.fallbackRoute), 0.50), "us", fmt.Sprintf("%d fallback routes", len(ld.fallbackRoute))},
		{"live.apply_us_mean", us(meanDur(apply)), "us", fmt.Sprintf("%d ApplyUpdates calls", len(apply))},
		{"scheme.decisions_per_query", float64(ld.decisionsTotal) / layerPairs, "count", "rate-1 trace sink"},
		{"scheme.share.vicinity", share("vicinity"), "ratio", ""},
		{"scheme.share.sequence", share("sequence"), "ratio", ""},
		{"scheme.share.to_landmark", share("to_landmark"), "ratio", ""},
		{"scheme.share.tree", share("tree"), "ratio", ""},
		{"scheme.share.detour", share("detour"), "ratio", ""},
		{"scheme.share.fallback", share("fallback"), "ratio", ""},
		{"scheme.hops_mean", ld.hopsMean, "count", ""},
		{"scheme.header_words_max", float64(ld.headerMax), "words", ""},
		{"wire.snapshot_mb", ld.snapMB, "MB", ""},
		{"wire.load_heap_ms", medianMs(ld.loadHeap), "ms", "LoadScheme, median of 3"},
		{"wire.load_mmap_ms", medianMs(ld.loadMmap), "ms", "OpenSchemeFile, median of 3"},
		{"wire.map_ms", medianMs(ld.mapDur), "ms", ""},
		{"wire.parse_ms", medianMs(ld.parseDur), "ms", ""},
		{"wire.decode_ms", medianMs(ld.decodeDur), "ms", ""},
		{"build.thm11_s", st.build.Seconds(), "s", fmt.Sprintf("n=%d", st.n)},
		{"build.lazy_rows", float64(st.lazyRows), "count", "LazyAPSP rows computed"},
		{"repair.refresh_ms_mean", refreshProc, "ms", "in-process Refresh"},
		{"repair.repairs", repairs, "count", ""},
		{"repair.escalations", escalations, "count", ""},
		{"repair.dirty_vics_mean", dirtyVics, "count", ""},
		{"repair.dirty_seqs_mean", dirtySeqs, "count", ""},
		{"graph.bidi_us", us(ld.bidi), "us", "calibration kernel, never gated"},
		{"refresh_mean_ms", refreshWire, "ms", "client-observed refresh"},
		{"stale_frac", staleFrac, "ratio", "stale=1 replies"},
		{"trace_overhead_frac", quantile(traced.rtt, 0.50)/rttP50 - 1, "ratio", "traced / untraced route_rtt_p50_us - 1"},
		{"addup.route_err", addRoute, "ratio", "|RTT - (noop RTT + Route)| / RTT"},
		{"addup.refresh_err", addRefresh, "ratio", "|refresh - (Refresh + noop RTT)| / refresh"},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
