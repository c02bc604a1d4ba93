package compactroute_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"compactroute"
)

var regenCorpus = flag.Bool("regen-fuzz-corpus", false,
	"rewrite testdata/fuzz/FuzzDecodeSnapshot seed files from the current encoders")

const corpusDir = "testdata/fuzz/FuzzDecodeSnapshot"

// corpusSchemes builds one snapshot-capable scheme per registered kind, on
// tiny deterministic graphs; the seed corpus files and the fuzz harness's
// built-in seeds are their snapshots.
func corpusSchemes(t testing.TB) map[string]compactroute.Scheme {
	t.Helper()
	g, err := compactroute.GNM(24, 96, 1, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	gu, err := compactroute.GNM(24, 96, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	psu := compactroute.AllPairs(gu)
	out := map[string]compactroute.Scheme{}
	add := func(s compactroute.Scheme, err error) {
		if err != nil {
			t.Fatal(err)
		}
		kind := compactroute.SnapshotKind(s)
		if kind == "" {
			t.Fatalf("%s has no snapshot kind", s.Name())
		}
		out[kind] = s
	}
	add(compactroute.NewExact(g))
	add(compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: 1}))
	add(compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: 1}))
	add(compactroute.NewWarmup3(g, ps, compactroute.Options{Eps: 0.5, Seed: 1}))
	add(compactroute.NewTheorem10(gu, psu, compactroute.Options{Eps: 0.5, Seed: 1}))
	add(compactroute.NewTheorem13(gu, psu, compactroute.Options{Eps: 0.5, L: 2, Seed: 1}))
	add(compactroute.NewTheorem16(g, ps, compactroute.Options{Eps: 0.5, K: 3, Seed: 1}))
	add(compactroute.NewNameIndependent(g, ps, compactroute.Options{Eps: 0.5, Seed: 1}))
	return out
}

func corpusFileName(kind string) string {
	return "seed_" + strings.NewReplacer("/", "_", ".", "_").Replace(kind)
}

// encodeCorpusEntry renders data in the Go fuzzing corpus-file format.
func encodeCorpusEntry(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// decodeCorpusEntry parses a Go fuzzing corpus file holding one []byte value.
func decodeCorpusEntry(raw []byte) ([]byte, error) {
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("not a v1 corpus file with one value (%d lines)", len(lines))
	}
	body := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return nil, fmt.Errorf("unquote corpus value: %w", err)
	}
	return []byte(s), nil
}

// TestFuzzCorpusSeedsDecode pins the checked-in seed corpus of
// FuzzDecodeSnapshot: there is exactly one valid snapshot file per registered
// kind and no other file, each parses as a Go fuzz corpus entry, and each
// decodes back into a scheme of that kind. Run with -regen-fuzz-corpus after
// changing a wire format to rewrite the seeds.
func TestFuzzCorpusSeedsDecode(t *testing.T) {
	schemes := corpusSchemes(t)
	if *regenCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for kind, s := range schemes {
			var buf bytes.Buffer
			if err := compactroute.SaveScheme(&buf, s); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(corpusDir, corpusFileName(kind))
			if err := os.WriteFile(path, encodeCorpusEntry(buf.Bytes()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d snapshot bytes)", path, buf.Len())
		}
	}

	kinds := compactroute.SnapshotKinds()
	seedFiles := map[string]bool{}
	for _, kind := range kinds {
		if _, ok := schemes[kind]; !ok {
			t.Fatalf("registered kind %q is not built by corpusSchemes", kind)
		}
		seedFiles[corpusFileName(kind)] = true
	}
	if len(kinds) != len(schemes) {
		t.Fatalf("corpusSchemes builds %d kinds, only %d of them registered (%v)", len(schemes), len(kinds), kinds)
	}
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !seedFiles[e.Name()] {
			t.Errorf("seed corpus file %s matches no registered kind; delete it", e.Name())
		}
	}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join(corpusDir, corpusFileName(kind))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing seed corpus file (regenerate with -regen-fuzz-corpus): %v", err)
			}
			data, err := decodeCorpusEntry(raw)
			if err != nil {
				t.Fatal(err)
			}
			s, err := compactroute.LoadScheme(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("seed corpus snapshot does not decode: %v", err)
			}
			if got := compactroute.SnapshotKind(s); got != kind {
				t.Fatalf("seed for %q decodes as kind %q", kind, got)
			}
		})
	}
}
