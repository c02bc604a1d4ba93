package compactroute_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"compactroute"
	"compactroute/internal/wire"
)

// snapRow names one snapshot-capable scheme constructor.
type snapRow struct {
	name     string
	weighted bool
	build    func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error)
}

func snapshotRows() []snapRow {
	return []snapRow{
		{"exact", false, func(g *compactroute.Graph, _ compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewExact(g)
		}},
		{"tz-k2", true, func(g *compactroute.Graph, _ compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
		}},
		{"tz-k3", true, func(g *compactroute.Graph, _ compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 3, Seed: benchSeed})
		}},
		{"thm11", true, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
		}},
		{"thm10", false, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewTheorem10(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
		}},
		{"warmup", true, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewWarmup3(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
		}},
		{"thm13-l2", false, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewTheorem13(g, ps, compactroute.Options{Eps: 0.5, L: 2, Seed: benchSeed})
		}},
		{"thm15-l2", false, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewTheorem15(g, ps, compactroute.Options{Eps: 0.5, L: 2, Seed: benchSeed})
		}},
		{"thm16-k3", true, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewTheorem16(g, ps, compactroute.Options{Eps: 0.5, K: 3, Seed: benchSeed})
		}},
		{"thm16-k4", true, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewTheorem16(g, ps, compactroute.Options{Eps: 0.5, K: 4, Seed: benchSeed})
		}},
		{"nameind", true, func(g *compactroute.Graph, ps compactroute.PathSource) (compactroute.Scheme, error) {
			return compactroute.NewNameIndependent(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
		}},
	}
}

// TestSnapshotRegistryKinds pins exactly which scheme kinds are
// snapshot-capable: adding a codec must extend this list (and with it the
// -save/-load row set and the hot-swap coverage of the live engine);
// removing one is a compatibility break this test makes loud.
func TestSnapshotRegistryKinds(t *testing.T) {
	want := []string{
		"exact/v2",
		"nameind/v2",
		"scheme3/v2",
		"scheme4k/v2",
		"schemegl/v2",
		"thm10/v2",
		"thm11/v2",
		"tzroute/v2",
	}
	got := compactroute.SnapshotKinds()
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered snapshot kinds = %v, want %v", got, want)
	}
}

// roundTrip saves s into memory and loads it back.
func roundTrip(t *testing.T, s compactroute.Scheme) compactroute.Scheme {
	t.Helper()
	var buf bytes.Buffer
	if err := compactroute.SaveScheme(&buf, s); err != nil {
		t.Fatalf("SaveScheme: %v", err)
	}
	loaded, err := compactroute.LoadScheme(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadScheme: %v", err)
	}
	return loaded
}

// TestDeterminismSnapshotRoundTrip is the acceptance criterion of the
// snapshot subsystem: for every snapshot-capable scheme, built from a dense
// or a lazy PathSource on two seeds, save -> load yields a scheme whose
// per-vertex table and label words, batched Evaluation, hop-by-hop simnet
// paths with header high-water marks, and concurrent netsim deliveries are
// all identical to the in-memory original.
func TestDeterminismSnapshotRoundTrip(t *testing.T) {
	seeds := []int64{benchSeed, benchSeed + 11}
	sources := []string{"dense", "lazy"}
	if testing.Short() {
		seeds = seeds[:1]
		sources = sources[:1]
	}
	for _, seed := range seeds {
		for _, source := range sources {
			for _, row := range snapshotRows() {
				t.Run(fmt.Sprintf("%s/%s/seed%d", row.name, source, seed), func(t *testing.T) {
					const n = 96
					g, err := compactroute.GNM(n, 4*n, seed, row.weighted, 32)
					if err != nil {
						t.Fatal(err)
					}
					ps, err := compactroute.NewPathSource(g, source, 1)
					if err != nil {
						t.Fatal(err)
					}
					built, err := row.build(g, ps)
					if err != nil {
						t.Fatal(err)
					}
					loaded := roundTrip(t, built)

					if built.Name() != loaded.Name() {
						t.Fatalf("Name: built %q loaded %q", built.Name(), loaded.Name())
					}
					lg := loaded.Graph()
					if lg.Fingerprint() != g.Fingerprint() {
						t.Fatalf("graph fingerprints diverge: %016x vs %016x", g.Fingerprint(), lg.Fingerprint())
					}
					for v := 0; v < n; v++ {
						if bw, lw := built.TableWords(compactroute.Vertex(v)), loaded.TableWords(compactroute.Vertex(v)); bw != lw {
							t.Fatalf("TableWords(%d): built %d loaded %d", v, bw, lw)
						}
						if bl, ll := built.LabelWords(compactroute.Vertex(v)), loaded.LabelWords(compactroute.Vertex(v)); bl != ll {
							t.Fatalf("LabelWords(%d): built %d loaded %d", v, bl, ll)
						}
					}

					pairs := compactroute.SamplePairs(n, 250, seed+5)
					// The loaded scheme evaluates against a path source over
					// its own graph copy, as a serving process would.
					lps, err := compactroute.NewPathSource(lg, source, 1)
					if err != nil {
						t.Fatal(err)
					}
					evb, err := compactroute.EvaluateBatched(built, ps, pairs, compactroute.EvalOptions{})
					if err != nil {
						t.Fatalf("evaluate built: %v", err)
					}
					evl, err := compactroute.EvaluateBatched(loaded, lps, pairs, compactroute.EvalOptions{})
					if err != nil {
						t.Fatalf("evaluate loaded: %v", err)
					}
					if !reflect.DeepEqual(evb, evl) {
						t.Fatalf("Evaluations diverge:\nbuilt:  %+v\nloaded: %+v", evb, evl)
					}

					// Hop-by-hop decisions and header high-water marks.
					nwb := compactroute.NewNetworkWithPath(built)
					nwl := compactroute.NewNetworkWithPath(loaded)
					for _, p := range pairs[:50] {
						rb, err := nwb.Route(p[0], p[1])
						if err != nil {
							t.Fatalf("built route %v: %v", p, err)
						}
						rl, err := nwl.Route(p[0], p[1])
						if err != nil {
							t.Fatalf("loaded route %v: %v", p, err)
						}
						if !reflect.DeepEqual(rb.Path, rl.Path) {
							t.Fatalf("paths diverge for %v:\nbuilt  %v\nloaded %v", p, rb.Path, rl.Path)
						}
						if rb.HeaderWords != rl.HeaderWords {
							t.Fatalf("header words diverge for %v: built %d loaded %d", p, rb.HeaderWords, rl.HeaderWords)
						}
					}

					// The concurrent goroutine-per-vertex realization must
					// deliver every pair with identical hops and weight.
					cnb := compactroute.NewConcurrentNetwork(built)
					defer cnb.Close()
					cnl := compactroute.NewConcurrentNetwork(loaded)
					defer cnl.Close()
					db, err := cnb.RouteAll(pairs[:50])
					if err != nil {
						t.Fatal(err)
					}
					dl, err := cnl.RouteAll(pairs[:50])
					if err != nil {
						t.Fatal(err)
					}
					for i := range db {
						if db[i].Err != nil || dl[i].Err != nil {
							t.Fatalf("netsim delivery %d errored: built %v loaded %v", i, db[i].Err, dl[i].Err)
						}
						if db[i].Hops != dl[i].Hops || db[i].Weight != dl[i].Weight {
							t.Fatalf("netsim delivery %d diverges: built %+v loaded %+v", i, db[i], dl[i])
						}
					}
				})
			}
		}
	}
}

// TestSnapshotKind pins which schemes are snapshot-capable and that
// SaveScheme refuses the rest with a clear error instead of writing a
// partial stream.
func TestSnapshotKind(t *testing.T) {
	g, err := compactroute.GNM(48, 192, benchSeed, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	ex, err := compactroute.NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if kind := compactroute.SnapshotKind(ex); kind != "exact/v2" {
		t.Fatalf("exact kind = %q", kind)
	}
	warm, err := compactroute.NewWarmup3(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	if kind := compactroute.SnapshotKind(warm); kind != "scheme3/v2" {
		t.Fatalf("warmup3 kind = %q, want scheme3/v2", kind)
	}
	gu, err := compactroute.GNM(48, 192, benchSeed, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	t13, err := compactroute.NewTheorem13(gu, compactroute.AllPairs(gu), compactroute.Options{Eps: 0.5, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	if kind := compactroute.SnapshotKind(t13); kind != "schemegl/v2" {
		t.Fatalf("thm13 kind = %q, want schemegl/v2", kind)
	}
	t16, err := compactroute.NewTheorem16(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	if kind := compactroute.SnapshotKind(t16); kind != "scheme4k/v2" {
		t.Fatalf("thm16 kind = %q, want scheme4k/v2", kind)
	}
	ni, err := compactroute.NewNameIndependent(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	if kind := compactroute.SnapshotKind(ni); kind != "nameind/v2" {
		t.Fatalf("name-independent kind = %q, want nameind/v2", kind)
	}
	// A scheme type with no codec must still be refused cleanly: strip the
	// Encodable interface off a real scheme via an anonymous wrapper.
	if kind := compactroute.SnapshotKind(plainScheme{ni}); kind != "" {
		t.Fatalf("wrapper unexpectedly snapshottable as %q", kind)
	}
	var buf bytes.Buffer
	if err := compactroute.SaveScheme(&buf, plainScheme{ni}); err == nil {
		t.Fatal("SaveScheme accepted a scheme without snapshot support")
	}
	if buf.Len() != 0 {
		t.Fatalf("SaveScheme wrote %d bytes before failing", buf.Len())
	}
}

// plainScheme forwards simnet.Scheme but hides any snapshot support, so the
// refusal path of SaveScheme stays covered now that every built-in scheme
// has a codec.
type plainScheme struct {
	compactroute.Scheme
}

// TestSnapshotRejectsCorruption flips, truncates and garbles a valid
// snapshot; every variant must produce an error, never a panic or a
// silently-wrong scheme.
func TestSnapshotRejectsCorruption(t *testing.T) {
	g, err := compactroute.GNM(32, 128, benchSeed, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compactroute.SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := compactroute.LoadScheme(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	t.Run("empty", func(t *testing.T) {
		if _, err := compactroute.LoadScheme(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty stream accepted")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] ^= 0xff
		if _, err := compactroute.LoadScheme(bytes.NewReader(bad)); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 7, len(valid) / 3, len(valid) - 1} {
			if _, err := compactroute.LoadScheme(bytes.NewReader(valid[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Every flipped byte must be caught by the checksum (or by a later
		// validation layer - either way, an error, never a panic).
		for off := 8; off < len(valid); off += 97 {
			bad := append([]byte(nil), valid...)
			bad[off] ^= 0x40
			if _, err := compactroute.LoadScheme(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at %d accepted", off)
			}
		}
	})
}

// reseal recomputes a snapshot stream's trailing checksum so corruption
// tests exercise the section and scheme decoders rather than dying at the
// CRC (the same trick FuzzDecodeSnapshot uses).
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	crc := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return append(append([]byte(nil), body...), byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// TestSnapshotResealedCorruptionSweep overwrites 4-byte windows of valid
// snapshots with a huge value (a classic out-of-range vertex id / length),
// reseals the checksum so the payload reaches the scheme decoders, and
// requires every variant to decode or error - never panic. This is the
// deterministic regression net for the class of bugs the fuzzer hunts
// probabilistically (e.g. unchecked cluster member ids indexing the CSR
// arrays).
func TestSnapshotResealedCorruptionSweep(t *testing.T) {
	g, err := compactroute.GNM(24, 96, benchSeed, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	schemes := map[string]compactroute.Scheme{}
	if s, err := compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed}); err == nil {
		schemes["tz"] = s
	}
	if s, err := compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed}); err == nil {
		schemes["thm11"] = s
	}
	if s, err := compactroute.NewExact(g); err == nil {
		schemes["exact"] = s
	}
	if s, err := compactroute.NewWarmup3(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed}); err == nil {
		schemes["warmup"] = s
	}
	if s, err := compactroute.NewTheorem16(g, ps, compactroute.Options{Eps: 0.5, K: 3, Seed: benchSeed}); err == nil {
		schemes["thm16"] = s
	}
	if s, err := compactroute.NewNameIndependent(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed}); err == nil {
		schemes["nameind"] = s
	}
	if gu, err := compactroute.GNM(24, 96, benchSeed, false, 0); err == nil {
		psu := compactroute.AllPairs(gu)
		if s, err := compactroute.NewTheorem10(gu, psu, compactroute.Options{Eps: 0.5, Seed: benchSeed}); err == nil {
			schemes["thm10"] = s
		}
		if s, err := compactroute.NewTheorem13(gu, psu, compactroute.Options{Eps: 0.5, L: 2, Seed: benchSeed}); err == nil {
			schemes["thm13"] = s
		}
	}
	for name, s := range schemes {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := compactroute.SaveScheme(&buf, s); err != nil {
				t.Fatal(err)
			}
			valid := buf.Bytes()
			huge := []byte{0x00, 0xca, 0x9a, 0x3b} // 1e9, little-endian
			for off := 8; off+4 < len(valid)-4; off += 53 {
				bad := append([]byte(nil), valid...)
				copy(bad[off:], huge)
				// Must not panic; decoding successfully is fine (the patch
				// may land in a float), an error is fine.
				if ds, err := compactroute.LoadScheme(bytes.NewReader(reseal(bad))); err == nil {
					useDecoded(ds)
				}
			}
		})
	}
}

// TestSnapshotVicinityErrorIndependentOfWorkers puts out-of-range member ids
// into two vicinities of a resealed Theorem 11 snapshot. Decode checks the
// sets on the worker pool, yet under every worker count the error must be
// the lower set's, the one a sequential decode reports.
func TestSnapshotVicinityErrorIndependentOfWorkers(t *testing.T) {
	g, err := compactroute.GNM(120, 480, benchSeed, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := compactroute.NewTheorem11(g, compactroute.AllPairs(g), compactroute.Options{Eps: 0.5, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compactroute.SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	snap, err := wire.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the vicinity section to its member-id array, which aliases data.
	d, err := snap.Decoder("thm11/vicinities")
	if err != nil {
		t.Fatal(err)
	}
	d.FloatSeq(make([]float64, g.N()))
	offs := d.Uint32Array()
	memV := d.VertexArray()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	base, at := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&memV[0]))
	if at < base || at+4*uintptr(len(memV)) > base+uintptr(len(data)) {
		t.Fatal("member ids do not alias the snapshot bytes")
	}
	bad := append([]byte(nil), data...)
	for _, u := range []int{17, 80} {
		i := int(at-base) + 4*int(offs[u]+1)
		binary.LittleEndian.PutUint32(bad[i:], uint32(g.N()+7))
	}
	bad = reseal(bad)
	defer compactroute.SetParallelism(0)
	var errs []string
	for _, workers := range []int{1, 4} {
		compactroute.SetParallelism(workers)
		if _, err := compactroute.LoadScheme(bytes.NewReader(bad)); err == nil {
			t.Fatalf("workers=%d: corrupt vicinities accepted", workers)
		} else {
			errs = append(errs, err.Error())
		}
	}
	if errs[0] != errs[1] || !strings.Contains(errs[0], "member 1 of B(17) out of range") {
		t.Fatalf("decode errors %q (1 worker) and %q (4 workers), want B(17)'s for both", errs[0], errs[1])
	}
}

// TestSnapshotRejectsNonFiniteEps requires a NaN or infinite eps to fail,
// both when a Theorem 11 scheme is built and when a snapshot carrying one
// is loaded: with such an eps the stretch bound is NaN or +Inf, and no
// route can violate it.
func TestSnapshotRejectsNonFiniteEps(t *testing.T) {
	g, err := compactroute.GNM(120, 480, benchSeed, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	bad := []float64{math.NaN(), math.Inf(1)}
	for _, eps := range bad {
		if _, err := compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: eps, Seed: benchSeed}); err == nil {
			t.Errorf("eps=%v: NewTheorem11 succeeded", eps)
		}
	}
	s, err := compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compactroute.SaveScheme(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The params payload (unaligned, so unpadded) follows its section name,
	// flags, payload length and pad length, and starts with eps.
	name := []byte("thm11/params")
	at := bytes.Index(data, name)
	if at < 0 {
		t.Fatal("no params section")
	}
	at += len(name) + 4 + 8 + 4
	if eps := math.Float64frombits(binary.LittleEndian.Uint64(data[at:])); eps != 0.5 {
		t.Fatalf("params eps reads %v, want 0.5", eps)
	}
	for _, eps := range bad {
		patched := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(patched[at:], math.Float64bits(eps))
		if _, err := compactroute.LoadScheme(bytes.NewReader(reseal(patched))); err == nil {
			t.Errorf("eps=%v: patched snapshot loaded", eps)
		} else if !strings.Contains(err.Error(), "eps") {
			t.Errorf("eps=%v: load error %q does not name eps", eps, err)
		}
	}
}
