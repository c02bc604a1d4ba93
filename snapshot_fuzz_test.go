package compactroute_test

import (
	"bytes"
	"hash/crc32"
	"sort"
	"testing"

	"compactroute"
	"compactroute/internal/wire"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the full snapshot decoder
// (framing, graph section, every registered scheme kind). The decoder must
// either return a scheme or an error - never panic, and never allocate
// beyond the budget the wire package derives from the input size (a crafted
// length prefix must be rejected before the make, not OOM the process).
//
// Raw random bytes almost always die at the checksum, which would leave the
// section and scheme decoders unfuzzed; the harness therefore also re-seals
// every input with a valid magic and checksum so mutations reach the deep
// decode paths.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed corpus: one valid snapshot (and its truncated first half) per
	// registered kind, in kind order, plus framing junk.
	schemes := corpusSchemes(f)
	kinds := compactroute.SnapshotKinds()
	sort.Strings(kinds)
	for _, kind := range kinds {
		s, ok := schemes[kind]
		if !ok {
			f.Fatalf("registered kind %q is not built by corpusSchemes", kind)
		}
		var buf bytes.Buffer
		if err := compactroute.SaveScheme(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte{})
	f.Add([]byte(wire.Magic))
	f.Add([]byte("CRSNAP01 but then junk follows the magic bytes"))
	// A bare v1 header (a retired version, rejected) and a bare v2 header,
	// mutated even if the scheme seeds above change shape.
	f.Add(append([]byte(wire.Magic), 1, 0, 0, 0))
	f.Add(append([]byte(wire.Magic), 2, 0, 0, 0))

	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, data []byte) {
		// As-is: exercises magic/length/checksum framing.
		if s, err := compactroute.LoadScheme(bytes.NewReader(data)); err == nil {
			useDecoded(s)
		}
		// Re-sealed: valid magic and checksum wrapped around the fuzzed
		// body, exercising the header, section and scheme decoders.
		body := data
		if len(body) >= len(wire.Magic) && string(body[:len(wire.Magic)]) == wire.Magic {
			body = body[len(wire.Magic):]
		}
		if len(body) >= 4 {
			body = body[:len(body)-4]
		}
		sealed := append([]byte(wire.Magic), body...)
		crc := crc32.Checksum(sealed, castagnoli)
		sealed = append(sealed, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
		if s, err := compactroute.LoadScheme(bytes.NewReader(sealed)); err == nil {
			useDecoded(s)
		}
	})
}

// useDecoded makes the minimal use every decoded snapshot must survive: its
// name, its graph, and the table words of every vertex. Some schemes derive
// the space tally on first use rather than at decode, so reading it here
// keeps a corrupt table that the tally would trip on from hiding behind a
// successful decode.
func useDecoded(s compactroute.Scheme) {
	_ = s.Name()
	for v := 0; v < s.Graph().N(); v++ {
		_ = s.TableWords(compactroute.Vertex(v))
	}
}
