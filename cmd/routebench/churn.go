package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"compactroute"
)

// churnConfig parameterizes the -churn replay (experiment E14) and the
// -churn -repair latency study (experiment E17).
type churnConfig struct {
	n         int
	eps       float64
	seed      int64
	churnSeed int64
	frac      float64
	pairs     int
	workers   int
	budgetMiB int
	repair    bool // -repair: incremental-repair mode (E17)
	batch     int  // repair mode: trace ops applied per phase
	phases    int  // repair mode: number of repair phases
	trace     bool // -trace: per-phase routing-decision census
}

// decisionCensus renders per-serving-phase deltas of the trace sink's
// routing-decision counters: which fraction of hop decisions were vicinity
// hits, tree descents, exact fallbacks. A nil census (no -trace) renders
// nothing.
type decisionCensus struct {
	sink    *compactroute.TraceSink
	prev    []uint64
	sampled uint64
}

// newDecisionCensus builds a full-rate trace sink and the census reader
// over it.
func newDecisionCensus() (*compactroute.TraceSink, *decisionCensus) {
	sink := compactroute.NewTraceSink(1, 1024)
	return sink, &decisionCensus{sink: sink, prev: make([]uint64, len(compactroute.RoutePhaseNames()))}
}

// line reports the decisions recorded since the previous call, with the
// fallback rate over the phase's sampled queries.
func (c *decisionCensus) line() string {
	names := compactroute.RoutePhaseNames()
	var b strings.Builder
	var total, fallbacks uint64
	cur := make([]uint64, len(names))
	for i := range names {
		cur[i] = c.sink.DecisionCount(compactroute.RoutePhase(i))
		d := cur[i] - c.prev[i]
		total += d
		if names[i] == "fallback" {
			fallbacks = d
		}
	}
	sampled := c.sink.SampledCount() - c.sampled
	c.sampled = c.sink.SampledCount()
	fmt.Fprintf(&b, "queries=%d decisions=%d", sampled, total)
	for i := range names {
		if d := cur[i] - c.prev[i]; d > 0 {
			fmt.Fprintf(&b, " %s=%d", names[i], d)
		}
	}
	if sampled > 0 {
		fmt.Fprintf(&b, " fallback-rate=%.4f", float64(fallbacks)/float64(sampled))
	}
	copy(c.prev, cur)
	return b.String()
}

// histLine renders the non-empty buckets of a stretch histogram.
func histLine(hist [compactroute.StretchBuckets + 1]uint64) string {
	var b strings.Builder
	for i, c := range hist {
		if c == 0 {
			continue
		}
		lo := 1 + float64(i)*compactroute.StretchBucketWidth
		fmt.Fprintf(&b, " [%.2f,%.2f)=%d", lo, lo+compactroute.StretchBucketWidth, c)
	}
	if b.Len() == 0 {
		return " (empty)"
	}
	return b.String()
}

// runChurn is the deterministic churn replay behind experiment E14 and the
// CI soak: build a Theorem 11 scheme, serve through the live engine while a
// seeded deletion trace degrades the graph, rebuild and hot-swap under
// load, and verify that the recovered serving state is bit-identical (same
// stretch histogram) to a from-scratch build on the churned graph. Any
// dropped query, bound violation in a clean phase, or histogram mismatch is
// a hard error (non-zero exit). A rate-1 shadow auditor rides along the
// whole replay; at every phase boundary its violation census must agree
// exactly with the synchronous verifier, and at the end its ledger must
// balance (verified + violations + stale + dropped == sampled).
func runChurn(out io.Writer, cfg churnConfig) error {
	g, err := compactroute.GNM(cfg.n, 4*cfg.n, cfg.seed, true, 32)
	if err != nil {
		return err
	}
	opts := compactroute.Options{Eps: cfg.eps, Seed: cfg.seed}
	build, err := compactroute.RebuildFuncFor("thm11/v2", opts, cfg.budgetMiB)
	if err != nil {
		return err
	}
	buildStart := time.Now()
	scheme, err := build(g)
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)
	lopts := compactroute.LiveServeOptions{Workers: cfg.workers, Verify: true, Build: build}
	var census *decisionCensus
	if cfg.trace {
		lopts.Trace, census = newDecisionCensus()
	}
	// The shadow auditor rides along at rate 1: every delivery is re-proved
	// off the hot path, and at each phase boundary its census must agree
	// with the synchronous verifier exactly.
	aud := compactroute.NewRouteAuditor(1, cfg.workers, 1<<16)
	defer aud.Close()
	lopts.Audit = aud
	eng, err := compactroute.ServeLive(scheme, lopts)
	if err != nil {
		return err
	}
	defer eng.Close()
	pairs := compactroute.SamplePairs(cfg.n, cfg.pairs, cfg.seed)
	fmt.Fprintf(out, "# E14 churn replay: %s on G(n=%d, m=%d), %d workers, %d pairs/phase, build %s\n",
		scheme.Name(), g.N(), g.M(), eng.Workers(), len(pairs), buildTime.Round(time.Millisecond))

	// auditCensus flushes the auditor at a phase boundary and checks its
	// census against the synchronous verifier: the audited violation delta
	// must match the phase's BoundViolations exactly (always 0 here).
	// Flushing before the next phase mutates the graph keeps attribution
	// exact - every in-flight record is audited against the state it was
	// routed on, so nothing from this phase can later be charged as stale.
	var prevAudit compactroute.RouteAuditStats
	auditCensus := func(phase string, wantViol uint64) error {
		aud.Flush()
		st := aud.Stats()
		viol := st.Violations - prevAudit.Violations
		if viol != wantViol {
			return fmt.Errorf("churn: %s phase: audit census charged %d violations, synchronous verify charged %d",
				phase, viol, wantViol)
		}
		fmt.Fprintf(out, "audit[%s]: sampled=%d verified=%d stale=%d dropped=%d viol=%d\n",
			phase, st.Sampled-prevAudit.Sampled, st.Verified-prevAudit.Verified,
			st.Stale-prevAudit.Stale, st.Dropped-prevAudit.Dropped, viol)
		prevAudit = st
		return nil
	}

	serve := func(phase string, ps [][2]compactroute.Vertex) error {
		for _, r := range eng.Query(ps, nil) {
			if r.Err != nil {
				return fmt.Errorf("churn: %s phase dropped query %d->%d: %w", phase, r.Src, r.Dst, r.Err)
			}
		}
		return nil
	}

	// Phase 1 - fresh: the proved bound must hold.
	if err := serve("fresh", pairs); err != nil {
		return err
	}
	fresh := eng.Stats()
	if fresh.BoundViolations != 0 {
		return fmt.Errorf("churn: %d bound violations on the fresh scheme", fresh.BoundViolations)
	}
	fmt.Fprintf(out, "fresh:     queries=%d max-stretch=%.3f viol=0 hist%s\n",
		fresh.Queries, fresh.MaxStretch, histLine(fresh.StretchHist))
	if census != nil {
		fmt.Fprintf(out, "trace[fresh]: %s\n", census.line())
	}
	if err := auditCensus("fresh", fresh.BoundViolations); err != nil {
		return err
	}

	// Phase 2 - degraded: replay the deletion trace in chunks, serving
	// between chunks. Every query must still get a finite route; quality is
	// reported as measured staleness stretch, never as a violation.
	trace := compactroute.DeletionTrace(g, cfg.frac, cfg.churnSeed)
	if len(trace) == 0 {
		return fmt.Errorf("churn: empty trace (frac %v of m=%d)", cfg.frac, g.M())
	}
	eng.ResetStats()
	treesBefore := eng.Overlay().FallbackTrees()
	degradedStart := time.Now()
	chunks := 8
	step := (len(trace) + chunks - 1) / chunks
	for lo := 0; lo < len(trace); lo += step {
		hi := min(lo+step, len(trace))
		if err := eng.ApplyUpdates(trace[lo:hi]); err != nil {
			return err
		}
		if err := serve("degraded", pairs); err != nil {
			return err
		}
	}
	degradedTime := time.Since(degradedStart)
	degraded := eng.Stats()
	if degraded.BoundViolations != 0 {
		return fmt.Errorf("churn: degraded phase charged %d violations (must be staleness)", degraded.BoundViolations)
	}
	fmt.Fprintf(out, "degraded:  queries=%d deleted=%d stale-served=%d dead-hits=%d fallbacks=%d max-stale=%.3f fallback-trees=%d took=%s\n",
		degraded.Queries, degraded.Overlay.Deleted, degraded.StaleServed,
		degraded.DeadEdgeHits, degraded.Fallbacks, degraded.MaxStaleStretch,
		eng.Overlay().FallbackTrees()-treesBefore, degradedTime.Round(time.Millisecond))
	fmt.Fprintf(out, "stale-hist:%s\n", histLine(degraded.StaleHist))
	if census != nil {
		fmt.Fprintf(out, "trace[degraded]: %s\n", census.line())
	}
	if err := auditCensus("degraded", degraded.BoundViolations); err != nil {
		return err
	}

	// Phase 3 - rebuild under load: serving continues (and must stay
	// error-free) while the background goroutine rebuilds; the swap is one
	// atomic pointer flip.
	rebuildStart := time.Now()
	done := eng.RebuildAsync()
	servedDuring := 0
	for {
		if err := serve("rebuild", pairs); err != nil {
			return err
		}
		servedDuring += len(pairs)
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("churn: rebuild: %w", err)
			}
		default:
			continue
		}
		break
	}
	rebuildTime := time.Since(rebuildStart)
	if gen := eng.Generation(); gen != 1 {
		return fmt.Errorf("churn: generation %d after rebuild, want 1", gen)
	}
	if !eng.Overlay().Empty() {
		return fmt.Errorf("churn: overlay still has %d entries after the swap", eng.Overlay().Len())
	}
	fmt.Fprintf(out, "rebuild:   took=%s queries-served-during=%d (zero blocked, zero dropped)\n",
		rebuildTime.Round(time.Millisecond), servedDuring)
	if census != nil {
		fmt.Fprintf(out, "trace[rebuild]: %s\n", census.line())
	}
	// Stats were not reset between the degraded and rebuild phases, so the
	// rebuild phase's synchronous violations are the delta.
	if err := auditCensus("rebuild", eng.Stats().BoundViolations-degraded.BoundViolations); err != nil {
		return err
	}

	// Phase 4 - recovered: the proved bound holds again on generation 1.
	eng.ResetStats()
	if err := serve("recovered", pairs); err != nil {
		return err
	}
	recovered := eng.Stats()
	if recovered.BoundViolations != 0 {
		return fmt.Errorf("churn: %d post-swap bound violations", recovered.BoundViolations)
	}
	if recovered.StaleServed != 0 {
		return fmt.Errorf("churn: %d post-swap stale-served queries", recovered.StaleServed)
	}
	fmt.Fprintf(out, "recovered: queries=%d max-stretch=%.3f viol=0 hist%s\n",
		recovered.Queries, recovered.MaxStretch, histLine(recovered.StretchHist))
	if census != nil {
		fmt.Fprintf(out, "trace[recovered]: %s\n", census.line())
	}
	if err := auditCensus("recovered", recovered.BoundViolations); err != nil {
		return err
	}
	final := aud.Stats()
	if final.Verified+final.Violations+final.Stale+final.Dropped != final.Sampled {
		return fmt.Errorf("churn: audit ledger does not balance: %d verified + %d violations + %d stale + %d dropped != %d sampled",
			final.Verified, final.Violations, final.Stale, final.Dropped, final.Sampled)
	}

	// Cross-check: a from-scratch build on the churned graph must produce a
	// bit-identical stretch histogram over the same pairs.
	churned := eng.Scheme().Graph()
	ref, err := build(churned)
	if err != nil {
		return err
	}
	refEng, err := compactroute.ServeLive(ref, compactroute.LiveServeOptions{Workers: cfg.workers, Verify: true})
	if err != nil {
		return err
	}
	defer refEng.Close()
	for _, r := range refEng.Query(pairs, nil) {
		if r.Err != nil {
			return fmt.Errorf("churn: from-scratch reference: %w", r.Err)
		}
	}
	refSt := refEng.Stats()
	if refSt.BoundViolations != 0 {
		return fmt.Errorf("churn: from-scratch reference violated its bound %d times", refSt.BoundViolations)
	}
	if recovered.StretchHist != refSt.StretchHist || recovered.MaxStretch != refSt.MaxStretch {
		return fmt.Errorf("churn: post-swap stretch histogram differs from the from-scratch build:\nswap:    max=%.6f%s\nscratch: max=%.6f%s",
			recovered.MaxStretch, histLine(recovered.StretchHist),
			refSt.MaxStretch, histLine(refSt.StretchHist))
	}
	fmt.Fprintf(out, "cross-check: post-swap histogram bit-identical to a from-scratch build on the churned graph\n")
	return nil
}

// schemeBytes serializes a scheme snapshot for the bit-identity cross-check
// of the repair mode.
func schemeBytes(s compactroute.Scheme) ([]byte, error) {
	var buf bytes.Buffer
	if err := compactroute.SaveScheme(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runChurnRepair is the measurement job behind experiment E17: apply the
// deletion trace in batches of cfg.batch and, after each batch, Refresh the
// engine - the same call routeserve's refresh command makes - so the serving
// scheme is repaired in place (dirty-set invalidation) and rebuilt only when
// the repair fails. Every phase also times a from-scratch build on the same
// churned graph and checks the refreshed scheme is snapshot-bit-identical to
// it; the clean post-refresh serving pass must stay violation-free. Any
// divergence is a hard error (non-zero exit). The per-phase lines report the
// refresh and full-rebuild latencies and the dirty-set footprint of the
// repair.
func runChurnRepair(out io.Writer, cfg churnConfig) error {
	g, err := compactroute.GNM(cfg.n, 4*cfg.n, cfg.seed, true, 32)
	if err != nil {
		return err
	}
	opts := compactroute.Options{Eps: cfg.eps, Seed: cfg.seed}
	build, repairFn, err := compactroute.RepairFuncFor("thm11/v2", opts, cfg.budgetMiB)
	if err != nil {
		return err
	}
	// The reference builder is a separate RebuildFuncFor recipe: calling the
	// coupled build again would re-arm the repair state on the reference
	// scheme and detach it from the serving one.
	refBuild, err := compactroute.RebuildFuncFor("thm11/v2", opts, cfg.budgetMiB)
	if err != nil {
		return err
	}
	buildStart := time.Now()
	scheme, err := build(g)
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)
	lopts := compactroute.LiveServeOptions{Workers: cfg.workers, Verify: true,
		Build: build, Repair: repairFn}
	var census *decisionCensus
	if cfg.trace {
		lopts.Trace, census = newDecisionCensus()
	}
	eng, err := compactroute.ServeLive(scheme, lopts)
	if err != nil {
		return err
	}
	defer eng.Close()
	trace := compactroute.DeletionTrace(g, cfg.frac, cfg.churnSeed)
	batch := max(cfg.batch, 1)
	phases := cfg.phases
	if maxPhases := (len(trace) + batch - 1) / batch; phases <= 0 || phases > maxPhases {
		phases = maxPhases
	}
	if phases == 0 {
		return fmt.Errorf("churn: empty trace (frac %v of m=%d)", cfg.frac, g.M())
	}
	pairs := compactroute.SamplePairs(cfg.n, cfg.pairs, cfg.seed)
	fmt.Fprintf(out, "# E17 repair-vs-rebuild: %s on G(n=%d, m=%d), batch=%d, %d phases, %d pairs/phase, build %s\n",
		scheme.Name(), g.N(), g.M(), batch, phases, len(pairs), buildTime.Round(time.Millisecond))

	var repairTotal, fullTotal time.Duration
	for phase := 0; phase < phases; phase++ {
		lo := phase * batch
		hi := min(lo+batch, len(trace))
		if err := eng.ApplyUpdates(trace[lo:hi]); err != nil {
			return err
		}
		before := eng.Stats().Escalations
		repairStart := time.Now()
		if err := eng.Refresh(); err != nil {
			return fmt.Errorf("churn: phase %d: refresh: %w", phase+1, err)
		}
		repairTime := time.Since(repairStart)
		st := eng.Stats()
		info := st.LastRepairInfo
		// An escalation is allowed but worth surfacing: it means the
		// dirty-set path gave up, and the phase's recovery time includes
		// the fallback rebuild.
		mode := "repair"
		if st.Escalations != before {
			mode = "escalated"
		}
		if !eng.Overlay().Empty() {
			return fmt.Errorf("churn: phase %d: overlay still has %d entries after %s", phase+1, eng.Overlay().Len(), mode)
		}

		// Reference: a timed from-scratch build on the same churned graph,
		// and the E14 invariant - the repaired scheme must serialize to the
		// exact same snapshot bytes.
		churned := eng.Scheme().Graph()
		fullStart := time.Now()
		ref, err := refBuild(churned)
		if err != nil {
			return err
		}
		fullTime := time.Since(fullStart)
		gotBytes, err := schemeBytes(eng.Scheme())
		if err != nil {
			return err
		}
		wantBytes, err := schemeBytes(ref)
		if err != nil {
			return err
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			return fmt.Errorf("churn: phase %d: repaired scheme diverges from the from-scratch build (%d vs %d snapshot bytes)",
				phase+1, len(gotBytes), len(wantBytes))
		}

		// Clean serving pass: the overlay is empty, so the proved bound must
		// hold on the repaired generation.
		eng.ResetStats()
		for _, r := range eng.Query(pairs, nil) {
			if r.Err != nil {
				return fmt.Errorf("churn: phase %d dropped query %d->%d: %w", phase+1, r.Src, r.Dst, r.Err)
			}
		}
		clean := eng.Stats()
		if clean.BoundViolations != 0 || clean.StaleServed != 0 {
			return fmt.Errorf("churn: phase %d: clean phase diverged (%d violations, %d stale-served)",
				phase+1, clean.BoundViolations, clean.StaleServed)
		}

		repairTotal += repairTime
		fullTotal += fullTime
		speedup := float64(fullTime) / float64(max(repairTime, time.Microsecond))
		dirty := fmt.Sprintf("dirty(vics=%d/%d clusters=%d seqs=%d labels=%d patched-rows=%d row-searches=%d)",
			info.ChangedVics, info.DirtyVics, info.DirtyClusters, info.DirtySeqs, info.DirtyLabels,
			info.PatchedRows, info.RowSearches)
		if mode == "escalated" {
			dirty = "dirty(n/a: full rebuild)"
		}
		fmt.Fprintf(out, "phase %d: edges=%d %s=%s full=%s speedup=%.1fx %s max-stretch=%.3f\n",
			phase+1, hi-lo, mode, repairTime.Round(10*time.Microsecond), fullTime.Round(10*time.Microsecond),
			speedup, dirty, clean.MaxStretch)
		if census != nil {
			fmt.Fprintf(out, "trace[phase %d]: %s\n", phase+1, census.line())
		}
	}
	fmt.Fprintf(out, "total: repair=%s full=%s speedup=%.1fx escalations=%d (every phase bit-identical to a from-scratch build)\n",
		repairTotal.Round(10*time.Microsecond), fullTotal.Round(10*time.Microsecond),
		float64(fullTotal)/float64(max(repairTotal, time.Microsecond)), eng.Stats().Escalations)
	return nil
}
