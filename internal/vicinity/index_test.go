package vicinity

import (
	"math"
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

// slotBytes returns the slot width of s's published table, or 0 before the
// first lookup builds it.
func slotBytes(s *Set) int {
	switch {
	case s.ent16.Load() != nil:
		return int(unsafe.Sizeof(slot[uint16]{}))
	case s.ent32.Load() != nil:
		return int(unsafe.Sizeof(slot[uint32]{}))
	}
	return 0
}

// wantSlotBytes is the width buildTable must pick for s: 4 bytes when every
// member id is at most maxNarrowID, 8 otherwise.
func wantSlotBytes(s *Set) int {
	for i := 0; i < s.Size(); i++ {
		if s.MemberV(i) > maxNarrowID {
			return 8
		}
	}
	return 4
}

// aliasIDs returns ids at or above 0xFFFF whose keys, truncated to 16 bits,
// would equal a member's key or the empty slot's 0: each member id plus
// 0x10000 (and plus 0xFFFF, the key of the id below it), 0xFFFF, 0x10000
// and the largest id.
func aliasIDs(s *Set) []graph.Vertex {
	ids := []graph.Vertex{0xFFFF, 0x10000, math.MaxInt32}
	for i := 0; i < s.Size(); i++ {
		m := s.MemberV(i)
		ids = append(ids, m+0xFFFF, m+0x10000)
	}
	return ids
}

// scanIDs returns the ids asked of a set in a family over n vertices:
// every id in [-1, n] and the set's alias ids.
func scanIDs(s *Set, n int) []graph.Vertex {
	ids := aliasIDs(s)
	for v := graph.Vertex(-1); v <= graph.Vertex(n); v++ {
		ids = append(ids, v)
	}
	return ids
}

// checkAgainstScan asks every set of a family its scanIDs, compares the
// index's answers with the scan's, and checks the width the lookups built.
func checkAgainstScan(t *testing.T, name string, sets []*Set) {
	t.Helper()
	for u, s := range sets {
		checkIDs(t, name, u, s, scanIDs(s, len(sets)))
	}
}

// checkIDs compares the index's answers for ids with the scan's, then
// checks the table width.
func checkIDs(t *testing.T, name string, u int, s *Set, ids []graph.Vertex) {
	t.Helper()
	for _, v := range ids {
		if got, want := indexAnswer(s, v), scanAnswer(s, v); got != want {
			t.Fatalf("%s: B(%d) lookup of %d = %+v, scan says %+v", name, u, v, got, want)
		}
	}
	if got, want := slotBytes(s), wantSlotBytes(s); got != want {
		t.Fatalf("%s: B(%d) built %d-byte slots, want %d", name, u, got, want)
	}
}

// widePathN is the vertex count of the wide path family: past 0x10000, so
// its far end holds ids above maxNarrowID.
const widePathN = 0x10000 + 64

// widePathCenters are the centers the wide-family tests query: both ends
// of the path, so the checked sets hold both table widths.
func widePathCenters() []int {
	var us []int
	for u := 0; u < 32; u++ {
		us = append(us, u)
	}
	for u := maxNarrowID - 48; u < widePathN; u++ {
		us = append(us, u)
	}
	return us
}

// widePathFamily builds a path over widePathN vertices with weights 1-3 and
// a vicinity family over it: B(u, l) for every center in widePathCenters -
// the sets near the far end key their tables in 8-byte slots, the rest in
// 4-byte ones - and the singleton {u} for every other vertex, which keeps
// the family cheap to build and to encode.
func widePathFamily(tb testing.TB, l int) []*Set {
	tb.Helper()
	b := graph.NewBuilder(widePathN)
	for v := graph.Vertex(0); v+1 < widePathN; v++ {
		b.AddEdge(v, v+1, float64(1+v%3))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	sets := make([]*Set, widePathN)
	for _, u := range widePathCenters() {
		if sets[u], err = Build(g, graph.Vertex(u), l); err != nil {
			tb.Fatal(err)
		}
	}
	for u, s := range sets {
		if s == nil {
			v := graph.Vertex(u)
			sets[u] = &Set{center: v, memV: []graph.Vertex{v}, memFirst: []uint32{0}, distF: []float64{0}}
		}
	}
	return sets
}

// widePathIDs are the ids asked of B(u) in the wide family: every id within
// 64 of u, the ids on both sides of the 16-bit boundary, the alias ids, and
// each member id minus 0x10000, which a wide table must not confuse with
// the member.
func widePathIDs(s *Set, n int) []graph.Vertex {
	ids := aliasIDs(s)
	for v := s.center - 64; v <= s.center+64; v++ {
		ids = append(ids, v)
	}
	for v := graph.Vertex(maxNarrowID - 2); v <= maxNarrowID+3; v++ {
		ids = append(ids, v)
	}
	for i := 0; i < s.Size(); i++ {
		ids = append(ids, s.MemberV(i)-0x10000)
	}
	return append(ids, -1, graph.Vertex(n))
}

// TestLookupIndexMatchesScan holds Contains and FirstHop to a linear scan of
// the members, for built families and for the same families decoded from
// their v2 encoding, over sizes around the table's rounding points; every
// lookup also asks ids at or above 0xFFFF, which a 4-byte table must miss.
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

	t.Run("wide", func(t *testing.T) {
		for _, l := range []int{3, 17} {
			built := widePathFamily(t, l)
			dec := roundTrip(t, built)
			for name, fam := range map[string][]*Set{"built": built, "decoded": dec} {
				widths := map[int]int{}
				for _, u := range widePathCenters() {
					if !built[u].Equal(dec[u]) {
						t.Fatalf("l=%d: B(%d) differs after a round trip", l, u)
					}
					checkIDs(t, name, u, fam[u], widePathIDs(fam[u], widePathN))
					widths[slotBytes(fam[u])]++
				}
				if widths[4] == 0 || widths[8] == 0 {
					t.Fatalf("%s l=%d: checked sets hold widths %v, want both 4 and 8", name, l, widths)
				}
			}
		}
	})

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
			tbl := unsafe.Slice(s.ent16.Load(), s.size.Load())
			if graph.Vertex(tbl[1].v) != y+1 {
				t.Fatalf("slot 1 holds %d, want %d wrapped from slot %d", tbl[1].v-1, y, size-1)
			}
			checkAgainstScan(t, "wrap", fam)
		}
	})
}

// TestLookupIndexFootprint pins the slot widths and the load bound: 4-byte
// slots for sets whose member ids fit 16 bits and 8-byte slots for the
// rest, at most ceil(4c/3) + 1 of them, and always one empty slot.
func TestLookupIndexFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(slot[uint16]{}); sz != 4 {
		t.Fatalf("a 16-bit slot is %d bytes, want 4", sz)
	}
	if sz := unsafe.Sizeof(slot[uint32]{}); sz != 8 {
		t.Fatalf("a 32-bit slot is %d bytes, want 8", sz)
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
// equal the scan. It runs on a GNM family, whose tables are all 4-byte, and
// on the wide path family, whose far-end tables are 8-byte.
func TestLookupIndexConcurrentBuild(t *testing.T) {
	const readers, gnmN = 8, 200
	gnmCenters := make([]int, gnmN)
	for u := range gnmCenters {
		gnmCenters[u] = u
	}
	for _, tc := range []struct {
		name    string
		n       int
		family  func() []*Set
		centers []int
		ids     func(s *Set, n int) []graph.Vertex
	}{
		{"gnm", gnmN, func() []*Set {
			sets, err := BuildAll(gnm(t, gnmN, 3*gnmN, 11, 32), 17)
			if err != nil {
				t.Fatal(err)
			}
			return sets
		}, gnmCenters, scanIDs},
		{"path", widePathN, func() []*Set { return widePathFamily(t, 9) }, widePathCenters(), widePathIDs},
	} {
		built := tc.family()
		ids := make([][]graph.Vertex, len(tc.centers))
		want := make([][]lookupAnswer, len(tc.centers))
		for k, u := range tc.centers {
			ids[k] = tc.ids(built[u], tc.n)
			for _, v := range ids[k] {
				want[k] = append(want[k], scanAnswer(built[u], v))
			}
		}
		fresh := tc.family()
		for name, fam := range map[string][]*Set{"built": fresh, "decoded": roundTrip(t, built)} {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for k, u := range tc.centers {
						for j, v := range ids[k] {
							if got := indexAnswer(fam[u], v); got != want[k][j] {
								t.Errorf("%s %s reader %d: B(%d) lookup of %d = %+v, scan says %+v", tc.name, name, r, u, v, got, want[k][j])
								return
							}
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			for _, u := range tc.centers {
				if got, want := slotBytes(fam[u]), wantSlotBytes(fam[u]); got != want {
					t.Fatalf("%s %s: B(%d) built %d-byte slots, want %d", tc.name, name, u, got, want)
				}
			}
		}
	}
}

// lookupSink keeps BenchmarkVicinityLookup's loop from being optimized away.
var lookupSink graph.Vertex

// BenchmarkVicinityLookup times FirstHop, the per-hop Lemma 2 table probe,
// on the decoded vicinity family bench serves (GNM(5000, 20000, 2015),
// weights 1-32, l = 230). The 2^16 (center, member) pairs cover every
// center in a pseudo-random order, so the probes land across all 5000
// indexes, a working set far larger than L2. It reports the index's slot
// bytes per member and the heap the lazy builds allocated per member, and
// fails unless every table of the family is in 4-byte slots, as every id
// of a graph with n <= 65535 allows.
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
	members, slotB := 0, 0
	for u, s := range sets {
		s.Contains(s.center) // build the index
		if w := slotBytes(s); w != 4 {
			b.Fatalf("B(%d) of an n = %d family has %d-byte slots, want 4", u, n, w)
		}
		members += s.Size()
		slotB += int(s.size.Load()) * slotBytes(s)
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
	b.ReportMetric(float64(slotB)/float64(members), "index-B/member")
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(members), "heap-B/member")
	runtime.KeepAlive(sets)
}
