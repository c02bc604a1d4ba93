package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/obs"
	"compactroute/internal/simnet"
	"compactroute/internal/tzroute"
)

// tightScheme halves the proved stretch bound, so every delivered route with
// positive distance is a synthetic bound violation - the auditor's e2e
// anomaly path without touching the routing tables.
type tightScheme struct {
	simnet.Scheme
}

func (s *tightScheme) StretchBound(d float64) float64 { return d / 2 }

// TestAuditorDeterministicAcrossWorkers pins the determinism contract: the
// audited sample set depends only on the query stream (deterministic
// splitmix64 selection), never on the worker count - sampled totals and the
// order-independent id checksum must be identical for 1 and 4 audit workers,
// across both the batched and the single-shot route paths.
func TestAuditorDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph(t, 72, 7)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs := samplePairs(g.N(), 400, 11)
	run := func(workers int) AuditStats {
		a := NewAuditor(0.5, workers, 4096)
		defer a.Close()
		eng, err := NewLive(s, LiveOptions{Workers: 2, Audit: a})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.Query(pairs, nil)
		for _, p := range pairs[:32] {
			eng.Route(p[0], p[1])
		}
		a.Flush()
		return a.Stats()
	}
	one, four := run(1), run(4)
	if one.Sampled == 0 {
		t.Fatal("rate-0.5 auditor sampled nothing over 432 queries")
	}
	if one.Dropped != 0 || four.Dropped != 0 {
		t.Fatalf("unexpected drops: %d / %d", one.Dropped, four.Dropped)
	}
	if one.Sampled != four.Sampled || one.IDChecksum != four.IDChecksum {
		t.Fatalf("sample set depends on worker count: 1 worker (%d, %016x) vs 4 workers (%d, %016x)",
			one.Sampled, one.IDChecksum, four.Sampled, four.IDChecksum)
	}
	if one.Verified != four.Verified || one.Violations != 0 || four.Violations != 0 || one.Stale != 0 {
		t.Fatalf("verdicts diverge: %+v vs %+v", one, four)
	}
	if one.Verified != one.Sampled {
		t.Fatalf("empty overlay: verified %d != sampled %d", one.Verified, one.Sampled)
	}
	if one.MinHeadroom <= 0 || one.Drift < 1 {
		t.Fatalf("headroom/drift not fed: %+v", one)
	}
}

// TestAuditorDropCounting pins the bounded-backlog contract: with no workers
// draining, a full ring drops (and counts) instead of blocking the hot path,
// and the survivors are still verified once workers start.
func TestAuditorDropCounting(t *testing.T) {
	g := testGraph(t, 32, 3)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(1, 1, 1)
	defer a.Close()
	for i := 0; i < 10; i++ {
		src, dst := graph.Vertex(i%g.N()), graph.Vertex((i+1)%g.N())
		a.offer(obs.QueryID(int32(src), int32(dst)), int32(src), int32(dst), 1, 0, 0, true)
	}
	st := a.Stats()
	if st.Sampled != 10 || st.Dropped != 9 || st.Backlog != 1 {
		t.Fatalf("sampled=%d dropped=%d backlog=%d, want 10/9/1", st.Sampled, st.Dropped, st.Backlog)
	}
	l, err := NewLive(s, LiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a.start(l.auditBackend())
	a.Flush()
	st = a.Stats()
	if st.Verified+st.Violations != 1 || st.Backlog != 0 {
		t.Fatalf("post-drain stats %+v, want exactly the 1 surviving record processed", st)
	}
}

// TestAuditorDoubleAttachPanics pins the one-auditor-one-engine contract.
func TestAuditorDoubleAttachPanics(t *testing.T) {
	g := testGraph(t, 32, 3)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(1, 1, 16)
	defer a.Close()
	eng, err := NewLive(s, LiveOptions{Workers: 1, Audit: a})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("attaching one auditor to a second engine did not panic")
		}
	}()
	NewLive(s, LiveOptions{Workers: 1, Audit: a})
}

// TestAuditViolationTripsFlightRecorder is the end-to-end anomaly drill: a
// synthetically tightened stretch bound makes audited deliveries violate, the
// auditor trips the armed flight recorder, and the dump file carries the
// offending route, its decision trace, and the surrounding event window.
func TestAuditViolationTripsFlightRecorder(t *testing.T) {
	g := testGraph(t, 48, 5)
	base, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := &tightScheme{Scheme: base}
	fr := obs.NewFlightRecorder(64)
	dump := filepath.Join(t.TempDir(), "flight.json")
	fr.Arm(dump)
	fr.Record(obs.FlightEvent{Kind: "test_marker", Detail: "pre-violation window event"})

	a := NewAuditor(1, 2, 4096)
	defer a.Close()
	eng, err := NewLive(s, LiveOptions{Workers: 2, Audit: a, FlightRec: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Query(samplePairs(g.N(), 64, 9), nil)
	a.Flush()

	st := a.Stats()
	if st.Violations == 0 {
		t.Fatalf("tightened bound produced no audit violations: %+v", st)
	}
	path, ok, derr := fr.Dumped()
	if !ok || derr != nil || path != dump {
		t.Fatalf("Dumped() = (%q, %v, %v), want (%q, true, nil)", path, ok, derr, dump)
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{`"audit_violation"`, `"test_marker"`, `"steps"`, `"routed weight `} {
		if !strings.Contains(body, want) {
			t.Fatalf("dump missing %s:\n%s", want, body)
		}
	}
	// The in-memory ring must hold the violation with its re-traced route.
	var sawViolation bool
	for _, ev := range fr.Events(0) {
		if ev.Kind == "audit_violation" {
			sawViolation = true
			if ev.Trace == nil || ev.Trace.Hops == 0 {
				t.Fatalf("violation event has no re-traced route: %+v", ev)
			}
			if !(ev.Weight > ev.Bound) {
				t.Fatalf("violation event weight %g not above bound %g", ev.Weight, ev.Bound)
			}
		}
	}
	if !sawViolation {
		t.Fatal("no audit_violation event in the recorder ring")
	}
}

// TestLiveAuditAttribution pins the churn-attribution rules of the live
// backend: a record is charged as a violation only when it was clean at route
// time AND generation + overlay version are unchanged at audit time;
// anything else is audit_stale.
func TestLiveAuditAttribution(t *testing.T) {
	g := testGraph(t, 48, 5)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(1, 1, 4096)
	defer a.Close()
	l, err := NewLive(s, LiveOptions{Workers: 1, Audit: a})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res := l.Route(0, 1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ver := l.Overlay().Version()
	rec := auditRecord{src: 0, dst: 1, weight: res.Weight, gen: 0, version: ver, clean: true}

	if v := a.backend.check(rec); v.kind != auditVerified {
		t.Fatalf("clean matching record: kind %d, want verified", v.kind)
	}
	dirty := rec
	dirty.clean = false
	if v := a.backend.check(dirty); v.kind != auditStale {
		t.Fatalf("unclean record: kind %d, want stale", v.kind)
	}
	moved := rec
	moved.gen = 7
	if v := a.backend.check(moved); v.kind != auditStale {
		t.Fatalf("generation-mismatched record: kind %d, want stale", v.kind)
	}
	// Advance the overlay version with an added edge between two
	// non-adjacent vertices (guaranteed to exist in a sparse graph).
	for v := graph.Vertex(1); int(v) < g.N(); v++ {
		if !g.HasEdge(0, v) {
			if err := l.ApplyUpdates([]live.Update{live.AddEdge(0, v, 3)}); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if l.Overlay().Version() == ver {
		t.Fatal("could not advance the overlay version")
	}
	if v := a.backend.check(rec); v.kind != auditStale {
		t.Fatalf("version-raced record: kind %d, want stale", v.kind)
	}
}

// TestLiveAuditSmokeUnderChurn routes through a live engine at audit rate 1
// across an update burst and checks the census balances: every sampled record
// is either verified, stale-attributed, or dropped - and none are violations.
func TestLiveAuditSmokeUnderChurn(t *testing.T) {
	g := testGraph(t, 64, 9)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(1, 2, 4096)
	defer a.Close()
	l, err := NewLive(s, LiveOptions{Workers: 2, Audit: a})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pairs := samplePairs(g.N(), 200, 13)
	l.Query(pairs, nil)
	if err := l.ApplyUpdates(live.ChurnTrace(g, 10, 21, 16)); err != nil {
		t.Fatal(err)
	}
	l.Query(pairs, nil)
	a.Flush()
	st := a.Stats()
	if st.Sampled == 0 {
		t.Fatal("rate-1 auditor sampled nothing")
	}
	if st.Verified+st.Violations+st.Stale+st.Dropped != st.Sampled {
		t.Fatalf("census does not balance: %+v", st)
	}
	if st.Violations != 0 {
		t.Fatalf("audit violations on an honest scheme: %+v", st)
	}
}
