package vicinity

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/wire"
)

// gnm builds a connected G(n, m) graph with weights 1..maxW (unit weights
// when maxW is 1).
func gnm(tb testing.TB, n, m int, seed int64, maxW int) *graph.Graph {
	tb.Helper()
	cfg := gen.Config{N: n, Seed: seed, Weighting: gen.Unit}
	if maxW > 1 {
		cfg.Weighting, cfg.MaxWeight = gen.UniformInt, maxW
	}
	g, err := gen.ConnectedGNM(cfg, m)
	if err != nil {
		tb.Fatalf("gen: %v", err)
	}
	return g
}

// roundTrip encodes sets with EncodeSetsV2 and decodes them again, so the
// result holds the decoded (member-array) storage with no index built yet.
func roundTrip(tb testing.TB, sets []*Set) []*Set {
	tb.Helper()
	var e wire.Encoder
	EncodeSetsV2(&e, sets)
	d := wire.NewDecoder("vicinities", e.Bytes())
	dec, err := DecodeSetsV2(d, len(sets))
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return dec
}

// lookupAnswer is what Contains and FirstHop report for one id.
type lookupAnswer struct {
	in    bool
	first graph.Vertex
	ok    bool
}

// scanAnswer answers Contains and FirstHop for v by a linear scan over the
// member arrays, which never touch the index.
func scanAnswer(s *Set, v graph.Vertex) lookupAnswer {
	for i, c := 0, s.Size(); i < c; i++ {
		if s.MemberV(i) != v {
			continue
		}
		if v == s.center {
			return lookupAnswer{in: true, first: graph.NoVertex}
		}
		return lookupAnswer{in: true, first: s.MemberFirst(i), ok: true}
	}
	return lookupAnswer{first: graph.NoVertex}
}

// indexAnswer answers the same questions through the index.
func indexAnswer(s *Set, v graph.Vertex) lookupAnswer {
	first, ok := s.FirstHop(v)
	return lookupAnswer{in: s.Contains(v), first: first, ok: ok}
}

// checkAgainstScan asks every set for every id in [-1, n] and compares the
// index's answers with the scan's.
func checkAgainstScan(t *testing.T, name string, sets []*Set) {
	t.Helper()
	n := len(sets)
	for u, s := range sets {
		for v := graph.Vertex(-1); v <= graph.Vertex(n); v++ {
			if got, want := indexAnswer(s, v), scanAnswer(s, v); got != want {
				t.Fatalf("%s: B(%d) lookup of %d = %+v, scan says %+v", name, u, v, got, want)
			}
		}
	}
}

// TestLookupIndexMatchesScan holds Contains and FirstHop to a linear scan of
// the members, for built families and for the same families decoded from
// their v2 encoding, over sizes around the table's rounding points.
func TestLookupIndexMatchesScan(t *testing.T) {
	const n = 120
	for _, maxW := range []int{1, 32} {
		g := gnm(t, n, 3*n, 7, maxW)
		for _, l := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100} {
			built, err := BuildAll(g, l)
			if err != nil {
				t.Fatal(err)
			}
			dec := roundTrip(t, built)
			// Equal members and scan-equal answers on both sides make the
			// built and decoded indexes agree on every id.
			for u := range built {
				if !built[u].Equal(dec[u]) {
					t.Fatalf("maxW=%d l=%d: B(%d) differs after a round trip", maxW, l, u)
				}
			}
			checkAgainstScan(t, "built", built)
			checkAgainstScan(t, "decoded", dec)
		}
	}

	t.Run("wrap", func(t *testing.T) {
		// B(0, 3) of a star is the center and its two lightest leaves x < y.
		// With 5 slots the center sits in slot 0 (its hash is 0); pick x and
		// y whose home is the last slot, so y's insert and every probe for
		// it wrap past the end to slot 1. A non-member z with the same home
		// must probe through the wrap to the empty slot 2.
		const leaves, l = 64, 3
		size := uint32(tblSizeFor(l))
		var last []graph.Vertex
		for v := graph.Vertex(1); v <= leaves && len(last) < 3; v++ {
			if homeSlot(v, size) == size-1 {
				last = append(last, v)
			}
		}
		if len(last) < 3 || homeSlot(0, size) != 0 {
			t.Fatalf("no three leaves hash into slot %d of %d", size-1, size)
		}
		x, y, z := last[0], last[1], last[2]
		b := graph.NewBuilder(leaves + 1)
		for v := graph.Vertex(1); v <= leaves; v++ {
			w := 2.0
			if v == x || v == y {
				w = 1
			}
			b.AddEdge(0, v, w)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		built, err := BuildAll(g, l)
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range [][]*Set{built, roundTrip(t, built)} {
			s := fam[0]
			if s.Size() != 3 || s.MemberV(1) != x || s.MemberV(2) != y {
				t.Fatalf("B(0, 3) = %v, want {0, %d, %d}", s.Members(), x, y)
			}
			if first, ok := s.FirstHop(y); !ok || first != y {
				t.Fatalf("FirstHop(%d) = %d, %v after the wrap", y, first, ok)
			}
			if s.Contains(z) {
				t.Fatalf("non-member %d found", z)
			}
			tbl := unsafe.Slice(s.ent.Load(), s.size.Load())
			if tbl[1].v != y+1 {
				t.Fatalf("slot 1 holds %d, want %d wrapped from slot %d", tbl[1].v-1, y, size-1)
			}
			checkAgainstScan(t, "wrap", fam)
		}
	})
}

// TestLookupIndexFootprint pins the slot width and the load bound: 8-byte
// slots, at most ceil(4c/3) + 1 of them, and always one empty slot.
func TestLookupIndexFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(vicEntry{}); sz != 8 {
		t.Fatalf("vicEntry is %d bytes, want 8", sz)
	}
	for c := 1; c <= 2048; c++ {
		size := tblSizeFor(c)
		if size <= c || size > (4*c+2)/3+1 {
			t.Fatalf("%d members get %d slots, want (%d, %d]", c, size, c, (4*c+2)/3+1)
		}
	}
}

// TestLookupIndexConcurrentBuild starts 8 readers at once on a freshly
// built family and on its freshly decoded twin, so the lazy index builds of
// every set race on the CAS that publishes them; every answer must still
// equal the scan.
func TestLookupIndexConcurrentBuild(t *testing.T) {
	const n, l, readers = 200, 17, 8
	g := gnm(t, n, 3*n, 11, 32)
	built, err := BuildAll(g, l)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]lookupAnswer, n)
	for u, s := range built {
		want[u] = make([]lookupAnswer, n+2)
		for v := graph.Vertex(-1); v <= n; v++ {
			want[u][v+1] = scanAnswer(s, v)
		}
	}
	fresh, err := BuildAll(g, l)
	if err != nil {
		t.Fatal(err)
	}
	for name, fam := range map[string][]*Set{"built": fresh, "decoded": roundTrip(t, built)} {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for u, s := range fam {
					for v := graph.Vertex(-1); v <= n; v++ {
						if got := indexAnswer(s, v); got != want[u][v+1] {
							t.Errorf("%s reader %d: B(%d) lookup of %d = %+v, scan says %+v", name, r, u, v, got, want[u][v+1])
							return
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// lookupSink keeps BenchmarkVicinityLookup's loop from being optimized away.
var lookupSink graph.Vertex

// BenchmarkVicinityLookup times FirstHop, the per-hop Lemma 2 table probe,
// on the decoded vicinity family bench serves (GNM(5000, 20000, 2015),
// weights 1-32, l = 230). The 2^16 (center, member) pairs cover every
// center in a pseudo-random order, so the probes land across all 5000
// indexes, a working set far larger than L2. It reports the index's slot
// bytes per member and the heap the lazy builds allocated per member.
func BenchmarkVicinityLookup(b *testing.B) {
	const n, l, pairs = 5000, 230, 1 << 16
	built, err := BuildAll(gnm(b, n, 4*n, 2015, 32), l)
	if err != nil {
		b.Fatal(err)
	}
	sets := roundTrip(b, built)
	rng := rand.New(rand.NewSource(1))
	type pair struct{ u, v graph.Vertex }
	ps := make([]pair, pairs)
	for i := range ps {
		s := sets[i%n]
		ps[i] = pair{s.center, s.MemberV(rng.Intn(s.Size()))}
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	members, slots := 0, 0
	for _, s := range sets {
		s.Contains(s.center) // build the index
		members += s.Size()
		slots += int(s.size.Load())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ps[i&(pairs-1)]
		f, _ := sets[p.u].FirstHop(p.v)
		lookupSink = f
	}
	b.StopTimer()
	b.ReportMetric(float64(slots)*float64(unsafe.Sizeof(vicEntry{}))/float64(members), "index-B/member")
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(members), "heap-B/member")
	runtime.KeepAlive(sets)
}
