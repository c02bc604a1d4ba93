package scheme5

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/testutil"
	"compactroute/internal/wire"
)

// TestDecodedTallyAndBunchesMatchBuilt decodes built Theorem 11 schemes and
// compares what the decoder derives instead of reading: the space tally,
// computed on first use, equals the built scheme's part by part and vertex
// by vertex, and every bunch list equals the built one and is ascending.
func TestDecodedTallyAndBunchesMatchBuilt(t *testing.T) {
	for _, n := range []int{96, 300} {
		g := testutil.MustGNM(t, n, 4*n, 2015, gen.UniformInt)
		s, err := New(g, graph.AllPairs(g), Params{Eps: 0.25, Seed: 2015})
		if err != nil {
			t.Fatal(err)
		}
		d := decodeTwin(t, s)

		want, got := s.Tally(), d.Tally()
		if !slices.Equal(got.Parts(), want.Parts()) {
			t.Fatalf("n=%d: decoded tally parts %v, built %v", n, got.Parts(), want.Parts())
		}
		for _, part := range want.Parts() {
			for v := 0; v < n; v++ {
				if got.PartAt(part, v) != want.PartAt(part, v) {
					t.Fatalf("n=%d: %s words at %d: decoded %d, built %d", n, part, v, got.PartAt(part, v), want.PartAt(part, v))
				}
			}
		}
		for v := 0; v < n; v++ {
			if d.TableWords(graph.Vertex(v)) != s.TableWords(graph.Vertex(v)) {
				t.Fatalf("n=%d: table words at %d: decoded %d, built %d", n, v, d.TableWords(graph.Vertex(v)), s.TableWords(graph.Vertex(v)))
			}
			bd, bs := d.lms.Bunch(graph.Vertex(v)), s.lms.Bunch(graph.Vertex(v))
			if !slices.Equal(bd, bs) {
				t.Fatalf("n=%d: bunch of %d: decoded %v, built %v", n, v, bd, bs)
			}
			for i := 1; i < len(bd); i++ {
				if bd[i-1] >= bd[i] {
					t.Fatalf("n=%d: bunch of %d not ascending: %v", n, v, bd)
				}
			}
		}
	}
}

// decodeTwin encodes s into a snapshot and decodes it on the heap.
func decodeTwin(t *testing.T, s *Scheme) *Scheme {
	t.Helper()
	snap := wire.New(s.WireKind(), s.g.Fingerprint())
	wire.EncodeGraph(snap, s.g)
	if err := s.EncodeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := wire.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dg, err := wire.DecodeGraph(parsed)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeSnapshotV2(dg, parsed)
	if err != nil {
		t.Fatal(err)
	}
	return dec.(*Scheme)
}

// interLayout holds the five arrays of a Lemma 8 sequence layout.
type interLayout struct {
	srcOff, relay, wpOff []uint32
	targets, wps         []graph.Vertex
}

// layoutOf reads the arrays in holds back from its encoder, which writes
// them verbatim.
func layoutOf(t *testing.T, in *core.Inter) interLayout {
	t.Helper()
	var e wire.Encoder
	in.EncodeWireV2(&e)
	d := wire.NewDecoder("inter", e.Bytes())
	d.Float64()
	l := interLayout{srcOff: d.Uint32Array(), targets: d.VertexArray(), relay: d.Uint32Array(),
		wpOff: d.Uint32Array(), wps: d.VertexArray()}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return l
}

// sameLayout fails unless a and b hold equal vicinities and element-equal
// Lemma 8 arrays.
func sameLayout(t *testing.T, name string, a, b *Scheme) {
	t.Helper()
	for u, s := range a.vc.Vics {
		if !s.Equal(b.vc.Vics[u]) {
			t.Fatalf("%s: B(%d) differs", name, u)
		}
	}
	la, lb := layoutOf(t, a.inter), layoutOf(t, b.inter)
	for _, c := range []struct {
		what string
		ok   bool
	}{
		{"srcOff", slices.Equal(la.srcOff, lb.srcOff)},
		{"targets", slices.Equal(la.targets, lb.targets)},
		{"relay", slices.Equal(la.relay, lb.relay)},
		{"wpOff", slices.Equal(la.wpOff, lb.wpOff)},
		{"wps", slices.Equal(la.wps, lb.wps)},
	} {
		if !c.ok {
			t.Fatalf("%s: Lemma 8 %s differs", name, c.what)
		}
	}
}

// TestOneLayoutDecodedAndRepaired holds the in-memory layout of Theorem 11
// to the snapshot's: a built scheme and its heap-decoded twin hold equal
// vicinities and element-equal Lemma 8 arrays, and so do a repair after
// edge deletions and a from-scratch build on the updated graph.
func TestOneLayoutDecodedAndRepaired(t *testing.T) {
	for _, n := range []int{96, 300} {
		for _, w := range []struct {
			name string
			wt   gen.Weighting
		}{{"unit", gen.Unit}, {"weighted", gen.UniformInt}} {
			name := fmt.Sprintf("n=%d %s", n, w.name)
			g := testutil.MustGNM(t, n, 4*n, 2015, w.wt)
			params := Params{Eps: 0.25, Seed: 2015}
			rep, err := NewRepairable(g, graph.AllPairs(g), params)
			if err != nil {
				t.Fatal(err)
			}
			sameLayout(t, name+" decoded", rep.Scheme(), decodeTwin(t, rep.Scheme()))

			ov := live.NewOverlay(g)
			var edges [][2]graph.Vertex
			for _, up := range live.DeletionTrace(g, 0.01, 7) {
				if err := ov.Apply(up); err != nil {
					t.Fatal(err)
				}
				edges = append(edges, [2]graph.Vertex{up.U, up.V})
			}
			ng, err := ov.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			next, st, err := rep.Repair(ng, graph.AllPairs(ng), edges)
			if err != nil {
				t.Fatalf("%s: repair: %v", name, err)
			}
			if st.DirtySeqs == 0 {
				t.Fatalf("%s: the repair rebuilt no sequence: %+v", name, st)
			}
			fresh, err := New(ng, graph.AllPairs(ng), params)
			if err != nil {
				t.Fatal(err)
			}
			sameLayout(t, name+" repaired", fresh, next.Scheme())
		}
	}
}
