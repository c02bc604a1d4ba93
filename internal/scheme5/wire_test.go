package scheme5

import (
	"bytes"
	"slices"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
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
		snap := wire.New(s.WireKind(), g.Fingerprint())
		wire.EncodeGraph(snap, g)
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
		d := dec.(*Scheme)

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
