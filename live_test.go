package compactroute_test

import (
	"bytes"
	"reflect"
	"testing"

	"compactroute"
)

// newLiveThm11 builds a small thm11 live engine with a rebuild recipe.
func newLiveThm11(t *testing.T, n int, o compactroute.LiveServeOptions) *compactroute.LiveEngine {
	t.Helper()
	g, err := compactroute.GNM(n, 4*n, benchSeed, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := compactroute.NewTheorem11(g, compactroute.AllPairs(g), compactroute.Options{Eps: 0.5, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	if o.Build == nil {
		build, err := compactroute.RebuildFuncFor("thm11/v2", compactroute.Options{Eps: 0.5, Seed: benchSeed}, 64)
		if err != nil {
			t.Fatal(err)
		}
		o.Build = build
	}
	l, err := compactroute.ServeLive(s, o)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestServeLivePublicAPI drives the exported surface end to end: updates,
// degraded serving, rebuild+swap, recovered serving.
func TestServeLivePublicAPI(t *testing.T) {
	const n = 120
	l := newLiveThm11(t, n, compactroute.LiveServeOptions{Workers: 2, Verify: true})
	g := l.Scheme().Graph()
	trace := compactroute.DeletionTrace(g, 0.08, 3)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	if err := l.ApplyUpdates(trace); err != nil {
		t.Fatal(err)
	}
	pairs := compactroute.SamplePairs(n, 400, benchSeed)
	for _, r := range l.Query(pairs, nil) {
		if r.Err != nil {
			t.Fatalf("degraded query: %v", r.Err)
		}
	}
	st := l.Stats()
	if st.BoundViolations != 0 {
		t.Fatalf("degraded phase charged %d violations", st.BoundViolations)
	}
	if st.Overlay.Deleted != len(trace) {
		t.Fatalf("overlay breakdown %+v, want %d deletions", st.Overlay, len(trace))
	}
	if err := l.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if l.Generation() != 1 || !l.Overlay().Empty() {
		t.Fatalf("after rebuild: generation %d, overlay %d entries", l.Generation(), l.Overlay().Len())
	}
	for _, r := range l.Query(pairs[:100], nil) {
		if r.Err != nil || r.Stale() {
			t.Fatalf("recovered query: %+v", r)
		}
	}
}

// TestLiveStateRoundTrip: a churned serving state (scheme + overlay
// journal) survives save/load exactly - same generation graph, same
// overlay entries and version, same routing answers.
func TestLiveStateRoundTrip(t *testing.T) {
	const n = 100
	l := newLiveThm11(t, n, compactroute.LiveServeOptions{Workers: 2, Verify: true})
	g := l.Scheme().Graph()
	if err := l.ApplyUpdates(compactroute.ChurnTrace(g, 25, 9, 8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compactroute.SaveLiveState(&buf, l); err != nil {
		t.Fatal(err)
	}
	build, err := compactroute.RebuildFuncFor("thm11/v2", compactroute.Options{Eps: 0.5, Seed: benchSeed}, 64)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := compactroute.LoadLiveState(bytes.NewReader(buf.Bytes()),
		compactroute.LiveServeOptions{Workers: 2, Verify: true, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Scheme().Graph().Fingerprint() != g.Fingerprint() {
		t.Fatal("restored base graph differs")
	}
	wantOv, gotOv := l.Overlay(), restored.Overlay()
	if wantOv.Version() != gotOv.Version() || wantOv.Len() != gotOv.Len() {
		t.Fatalf("overlay (version %d, len %d) != (version %d, len %d)",
			gotOv.Version(), gotOv.Len(), wantOv.Version(), wantOv.Len())
	}
	a, b := wantOv.Entries(), gotOv.Entries()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("overlay entry %d: %+v != %+v", i, b[i], a[i])
		}
	}
	for _, p := range compactroute.SamplePairs(n, 200, 5) {
		ra := l.Route(p[0], p[1])
		rb := restored.Route(p[0], p[1])
		if ra.Err != nil || rb.Err != nil {
			t.Fatalf("pair %v: %v / %v", p, ra.Err, rb.Err)
		}
		if ra.Hops != rb.Hops || ra.Weight != rb.Weight || ra.Fallback != rb.Fallback {
			t.Fatalf("pair %v: original (%d, %v, %v) restored (%d, %v, %v)",
				p, ra.Hops, ra.Weight, ra.Fallback, rb.Hops, rb.Weight, rb.Fallback)
		}
	}
	// A plain scheme snapshot (no journal) loads as a clean live engine.
	var plain bytes.Buffer
	if err := compactroute.SaveScheme(&plain, l.Scheme()); err != nil {
		t.Fatal(err)
	}
	clean, err := compactroute.LoadLiveState(bytes.NewReader(plain.Bytes()), compactroute.LiveServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Overlay().Empty() {
		t.Fatal("plain snapshot restored a non-empty overlay")
	}
	// An engine whose scheme has no snapshot support refuses to save.
	// Every built-in scheme has a codec now, so hide it behind plainScheme.
	gq, err := compactroute.GNM(40, 160, 1, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	ni, err := compactroute.NewNameIndependent(gq, compactroute.AllPairs(gq), compactroute.Options{Eps: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := compactroute.ServeLive(plainScheme{ni}, compactroute.LiveServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := compactroute.SaveLiveState(&bytes.Buffer{}, wl); err == nil {
		t.Fatal("SaveLiveState accepted a scheme without snapshot support")
	}
}

// TestLiveFallbackIndependentOfCacheState: routes over a degraded overlay
// do not depend on which fallback trees an engine has built. Two engines
// load one degraded live-state snapshot - one with 1 worker, one with 4 -
// and are warmed on different pair sets; then one routes a pair set
// forward, query by query, and the other answers it reversed in one
// batch. Every result field must agree.
func TestLiveFallbackIndependentOfCacheState(t *testing.T) {
	const n = 300
	l := newLiveThm11(t, n, compactroute.LiveServeOptions{Workers: 1})
	if err := l.ApplyUpdates(compactroute.DeletionTrace(l.Scheme().Graph(), 0.05, 17)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compactroute.SaveLiveState(&buf, l); err != nil {
		t.Fatal(err)
	}
	load := func(workers int) *compactroute.LiveEngine {
		e, err := compactroute.LoadLiveState(bytes.NewReader(buf.Bytes()), compactroute.LiveServeOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := load(1), load(4)
	defer a.Close()
	defer b.Close()
	a.Query(compactroute.SamplePairs(n, 500, 1), nil)
	b.Query(compactroute.SamplePairs(n, 50, 2), nil)

	pairs := compactroute.SamplePairs(n, 2000, 3)
	rev := make([][2]compactroute.Vertex, len(pairs))
	for i, p := range pairs {
		rev[len(pairs)-1-i] = p
	}
	got := b.Query(rev, nil)
	fallbacks := 0
	for i, p := range pairs {
		ra, rb := a.Route(p[0], p[1]), got[len(pairs)-1-i]
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("pair %v: 1-worker engine %+v, 4-worker engine %+v", p, ra, rb)
		}
		if ra.Fallback {
			fallbacks++
		}
	}
	if fallbacks == 0 || a.Overlay().FallbackTrees() == 0 || b.Overlay().FallbackTrees() == 0 {
		t.Fatalf("fallbacks=%d, trees built %d / %d: the pairs must reach the fallback trees",
			fallbacks, a.Overlay().FallbackTrees(), b.Overlay().FallbackTrees())
	}
}

func TestRebuildFuncForUnknownKind(t *testing.T) {
	for _, kind := range []string{"nope/v1", "thm11/v1"} {
		if _, err := compactroute.RebuildFuncFor(kind, compactroute.Options{}, 1); err == nil {
			t.Fatalf("kind %q accepted", kind)
		}
		if _, _, err := compactroute.RepairFuncFor(kind, compactroute.Options{}, 1); err == nil {
			t.Fatalf("repair for kind %q accepted", kind)
		}
	}
}
