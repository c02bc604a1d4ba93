package serve

import (
	"time"

	"compactroute/internal/obs"
)

// This file is the bridge between the engine's sharded statistics and the
// obs registry: nothing on the query path changes, a collect hook merges the
// shard counters into a cached snapshot at scrape time, and every exported
// metric is a func-backed instrument reading that snapshot. The hook and the
// instrument reads both run under the registry lock, so a scrape observes
// one coherent merge.

// hopCoarseBounds are the exposition buckets of the hop histogram: the fine
// 1025-bucket internal histogram keeps quantiles exact, the exposition sums
// it into power-of-two buckets so a scrape stays readable.
var hopCoarseBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

func hopSnapshot(c *counters) obs.HistSnapshot {
	s := obs.HistSnapshot{
		Bounds: hopCoarseBounds,
		Counts: make([]uint64, len(hopCoarseBounds)+1),
		Count:  c.delivered,
		Sum:    float64(c.hopsSum),
	}
	prev := -1
	for i, b := range hopCoarseBounds {
		hi := int(b)
		for h := prev + 1; h <= hi; h++ {
			s.Counts[i] += c.hopHist[h]
		}
		prev = hi
	}
	for h := prev + 1; h < len(c.hopHist); h++ {
		s.Counts[len(hopCoarseBounds)] += c.hopHist[h]
	}
	return s
}

// stretchBounds are the exposition upper bounds of the stretch histogram:
// bucket i of the internal histogram spans [1+i*W, 1+(i+1)*W).
var stretchBounds = func() []float64 {
	b := make([]float64, StretchBuckets)
	for i := range b {
		b[i] = 1 + float64(i+1)*StretchBucketWidth
	}
	return b
}()

func stretchSnapshot(hist *[StretchBuckets + 1]uint64) obs.HistSnapshot {
	s := obs.HistSnapshot{Bounds: stretchBounds, Counts: make([]uint64, len(hist))}
	var total uint64
	for i, v := range hist {
		s.Counts[i] = v
		total += v
	}
	s.Count = total
	return s
}

// latBoundsSeconds are the exposition bounds of the latency histogram.
var latBoundsSeconds = func() []float64 {
	b := make([]float64, latBuckets)
	for i := range b {
		b[i] = float64(latBoundNs(i)) * 1e-9
	}
	return b
}()

func latSnapshot(c *counters) obs.HistSnapshot {
	s := obs.HistSnapshot{
		Bounds: latBoundsSeconds,
		Counts: make([]uint64, len(c.latHist)),
		Count:  c.latCount,
		Sum:    float64(c.latSum) * 1e-9,
	}
	for i, v := range c.latHist {
		s.Counts[i] = v
	}
	return s
}

// registerObs exposes the engine on reg: the serving families plus the
// churn/repair/generation lifecycle. Called once from NewLiveWithOverlay.
func (l *Live) registerObs(reg *obs.Registry) {
	reg.OnCollect(func() {
		l.obsCnt = l.merged()
		l.obsStats = l.obsCnt.finalize(l.start.Load())
		l.lastInfoMu.Lock()
		l.obsInfo = l.lastInfo
		l.lastInfoMu.Unlock()
	})
	c, st, workers := &l.obsCnt, &l.obsStats, len(l.shards)
	reg.CounterFunc("compactroute_queries_total",
		"Queries served (including failures).",
		func() float64 { return float64(c.queries) })
	reg.CounterFunc("compactroute_route_errors_total",
		"Routing failures.",
		func() float64 { return float64(c.errors) })
	reg.CounterFunc("compactroute_delivered_total",
		"Queries delivered at their destination.",
		func() float64 { return float64(c.delivered) })
	reg.CounterFunc("compactroute_unverified_total",
		"Clean deliveries served without distance verification.",
		func() float64 { return float64(c.unverified) })
	reg.CounterFunc("compactroute_bound_violations_total",
		"Clean deliveries whose routed weight exceeded the scheme's proved stretch bound.",
		func() float64 { return float64(c.violations) })
	reg.GaugeFunc("compactroute_qps",
		"Queries per second since start or stats reset.",
		func() float64 { return st.QPS })
	reg.GaugeFunc("compactroute_hops_mean",
		"Mean hops over deliveries.",
		func() float64 { return st.MeanHops })
	reg.GaugeFunc("compactroute_hops_p50",
		"Median hops over deliveries.",
		func() float64 { return float64(st.P50Hops) })
	reg.GaugeFunc("compactroute_hops_p99",
		"99th-percentile hops over deliveries.",
		func() float64 { return float64(st.P99Hops) })
	reg.GaugeFunc("compactroute_stretch_max",
		"Maximum observed stretch over verified deliveries.",
		func() float64 { return st.MaxStretch })
	reg.GaugeFunc("compactroute_route_latency_p50_seconds",
		"Median route latency over the sampled subset (conservative: bucket upper bound).",
		func() float64 { return st.P50Latency.Seconds() })
	reg.GaugeFunc("compactroute_route_latency_p99_seconds",
		"99th-percentile route latency over the sampled subset (conservative: bucket upper bound).",
		func() float64 { return st.P99Latency.Seconds() })
	reg.HistogramFunc("compactroute_hops",
		"Route length in hops over deliveries (power-of-two buckets).",
		func() obs.HistSnapshot { return hopSnapshot(c) })
	reg.HistogramFunc("compactroute_stretch",
		"Stretch of verified deliveries at positive distance (bucket width 0.25 from 1.0; sum not tracked).",
		func() obs.HistSnapshot { return stretchSnapshot(&c.stretchHist) })
	reg.HistogramFunc("compactroute_route_latency_seconds",
		"Route latency over a deterministic 1-in-8 sample of queries.",
		func() obs.HistSnapshot { return latSnapshot(c) })
	reg.GaugeFunc("compactroute_workers",
		"Serving shards (worker lanes).",
		func() float64 { return float64(workers) })
	g := l.Scheme().Graph()
	n, m := float64(g.N()), float64(g.M())
	reg.GaugeFunc("compactroute_graph_vertices",
		"Vertices of the preprocessed graph.",
		func() float64 { return n })
	reg.GaugeFunc("compactroute_graph_edges",
		"Edges of the preprocessed graph.",
		func() float64 { return m })

	reg.GaugeFunc("compactroute_live_generation",
		"Id of the serving generation (0 until the first swap).",
		func() float64 { return float64(l.Generation()) })
	reg.GaugeFunc("compactroute_live_rebuilding",
		"1 while a rebuild or repair is in flight.",
		func() float64 {
			if l.rebuilding.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("compactroute_live_overlay_version",
		"Version counter of the edge-delta overlay.",
		func() float64 { return float64(l.ov.Version()) })
	reg.GaugeFunc("compactroute_live_overlay_deleted",
		"Overlay entries: base edges currently dead.",
		func() float64 { return float64(l.ov.Breakdown().Deleted) })
	reg.GaugeFunc("compactroute_live_overlay_inserted",
		"Overlay entries: alive edges absent from the base graph.",
		func() float64 { return float64(l.ov.Breakdown().Inserted) })
	reg.GaugeFunc("compactroute_live_overlay_reweighted",
		"Overlay entries: base edges alive at a different weight.",
		func() float64 { return float64(l.ov.Breakdown().Reweighted) })

	reg.CounterFunc("compactroute_live_dead_edge_hits_total",
		"Scheme decisions that chose a dead edge.",
		func() float64 { return float64(c.deadHits) })
	reg.CounterFunc("compactroute_live_fallbacks_total",
		"Routes completed by an exact shortest path from the abandon point.",
		func() float64 { return float64(c.fallbacks) })
	reg.CounterFunc("compactroute_live_fallback_trees_total",
		"Shortest-path trees the fallback built: at most one per abandon point and overlay version, once its searches cost as much.",
		func() float64 { return float64(l.ov.FallbackTrees() - l.treesAtReset.Load()) })
	reg.CounterFunc("compactroute_live_stale_served_total",
		"Deliveries served degraded (completed by the fallback, non-empty overlay, or racing an update or swap).",
		func() float64 { return float64(c.stale) })
	reg.GaugeFunc("compactroute_live_stale_stretch_max",
		"Maximum measured staleness stretch over degraded deliveries.",
		func() float64 { return c.maxStale })
	reg.HistogramFunc("compactroute_live_stale_stretch",
		"Measured staleness stretch of degraded deliveries (bucket width 0.25 from 1.0; sum not tracked).",
		func() obs.HistSnapshot { return stretchSnapshot(&c.staleHist) })

	reg.CounterVar(&l.rebuilds, "compactroute_live_rebuilds_total",
		"Successful full rebuilds.")
	reg.CounterVar(&l.rebuildErrs, "compactroute_live_rebuild_errors_total",
		"Rebuild attempts that errored.")
	reg.CounterVar(&l.swaps, "compactroute_live_swaps_total",
		"Generation hot-swaps (rebuilds plus repairs).")
	reg.CounterVar(&l.repairs, "compactroute_live_repairs_total",
		"Successful incremental repairs.")
	reg.CounterVar(&l.repairErrs, "compactroute_live_repair_errors_total",
		"Repair attempts that errored.")
	reg.CounterVar(&l.escalations, "compactroute_live_escalations_total",
		"Refresh calls that fell back from repair to a full rebuild.")
	reg.CounterVar(&l.pendingDropped, "compactroute_live_pending_dropped_total",
		"Quiesced updates rejected at drain time.")

	reg.GaugeFunc("compactroute_live_last_rebuild_seconds",
		"Duration of the last successful rebuild.",
		func() float64 { return time.Duration(l.lastRebuild.Load()).Seconds() })
	reg.GaugeFunc("compactroute_live_last_repair_seconds",
		"Duration of the last successful repair.",
		func() float64 { return time.Duration(l.lastRepair.Load()).Seconds() })
	reg.GaugeFunc("compactroute_live_repair_edges",
		"Edge updates covered by the last repair.",
		func() float64 { return float64(l.obsInfo.Edges) })
	reg.GaugeFunc("compactroute_live_repair_dirty_vicinities",
		"Vicinities recomputed by the last repair.",
		func() float64 { return float64(l.obsInfo.DirtyVics) })
	reg.GaugeFunc("compactroute_live_repair_changed_vicinities",
		"Recomputed vicinities that actually differed in the last repair.",
		func() float64 { return float64(l.obsInfo.ChangedVics) })
	reg.GaugeFunc("compactroute_live_repair_dirty_clusters",
		"Cluster trees recomputed by the last repair.",
		func() float64 { return float64(l.obsInfo.DirtyClusters) })
	reg.GaugeFunc("compactroute_live_repair_dirty_sequences",
		"Inter-routing sequences rebuilt by the last repair.",
		func() float64 { return float64(l.obsInfo.DirtySeqs) })
	reg.GaugeFunc("compactroute_live_repair_dirty_labels",
		"Labels recomputed by the last repair.",
		func() float64 { return float64(l.obsInfo.DirtyLabels) })
	reg.GaugeFunc("compactroute_live_repair_patched_rows",
		"Shortest-path rows the last repair carried over by patching them.",
		func() float64 { return float64(l.obsInfo.PatchedRows) })
	reg.GaugeFunc("compactroute_live_repair_row_searches",
		"Full single-source searches the last repair's row cache ran.",
		func() float64 { return float64(l.obsInfo.RowSearches) })
}
