package compactroute

import (
	"fmt"
	"io"
	"os"
	"time"

	"compactroute/internal/wire"
)

// SnapshotKind returns the registered wire kind of a scheme, or "" if the
// scheme does not support snapshots. Every scheme this package constructs
// registers one (see internal/wire): the exact and Thorup-Zwick baselines,
// Theorems 10, 11 and 16, the generalized Theorems 13 and 15, the warm-up
// scheme and the name-independent extension.
func SnapshotKind(s Scheme) string {
	if es, ok := s.(wire.Encodable); ok {
		return es.WireKind()
	}
	return ""
}

// SnapshotKinds returns the scheme kinds with a registered snapshot
// decoder (order unspecified) - the set -save/-load and the live engine's
// hot-swap persistence cover.
func SnapshotKinds() []string { return wire.Kinds() }

// SaveScheme writes a versioned binary snapshot of a preprocessed scheme -
// the graph it was built for plus every routing table, sequence and label -
// so a serving process (cmd/routeserve) can LoadScheme it without paying the
// construction cost. The loaded scheme is behaviorally identical to s: same
// routing decisions, labels, headers and table words.
//
// It returns an error if the scheme's type has no snapshot support.
func SaveScheme(w io.Writer, s Scheme) error {
	es, ok := s.(wire.Encodable)
	if !ok {
		return fmt.Errorf("compactroute: scheme %s (%T) has no snapshot support", s.Name(), s)
	}
	g := s.Graph()
	snap := wire.New(es.WireKind(), g.Fingerprint())
	wire.EncodeGraph(snap, g)
	if err := es.EncodeSnapshot(snap); err != nil {
		return fmt.Errorf("compactroute: encode %s snapshot: %w", s.Name(), err)
	}
	if _, err := snap.WriteTo(w); err != nil {
		return fmt.Errorf("compactroute: write snapshot: %w", err)
	}
	return nil
}

// LoadScheme reads a snapshot written by SaveScheme: it verifies the magic,
// version and checksum, rebuilds the graph, checks the graph fingerprint
// recorded at save time, and dispatches to the decoder registered for the
// snapshot's scheme kind.
func LoadScheme(r io.Reader) (Scheme, error) {
	t0 := time.Now()
	snap, err := wire.Read(r)
	if err != nil {
		return nil, err
	}
	return decodeLoad(snap, wire.LoadEvent{Parse: time.Since(t0)})
}

// decodeLoad decodes a parsed snapshot and reports the load to the snapshot
// observer; ev carries the map and parse timings of the caller's load path.
func decodeLoad(snap *wire.Snapshot, ev wire.LoadEvent) (Scheme, error) {
	t0 := time.Now()
	s, err := decodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	ev.Kind, ev.Decode = snap.Kind, time.Since(t0)
	wire.EmitLoad(ev)
	return s, nil
}

func decodeSnapshot(snap *wire.Snapshot) (Scheme, error) {
	g, err := wire.DecodeGraph(snap)
	if err != nil {
		return nil, err
	}
	if fp := g.Fingerprint(); fp != snap.Fingerprint {
		return nil, fmt.Errorf("compactroute: snapshot graph fingerprint %016x does not match header %016x", fp, snap.Fingerprint)
	}
	dec, ok := wire.DecoderFor(snap.Kind)
	if !ok {
		return nil, fmt.Errorf("compactroute: no decoder registered for scheme kind %q (known: %v)", snap.Kind, wire.Kinds())
	}
	s, err := dec(g, snap)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// PeekSnapshotKind reads only the header of the snapshot at path and
// returns its scheme kind - how a serving process chooses a rebuild recipe
// before paying for the full (checksummed) decode. The magic and version
// are checked; everything after the kind string, including the checksum, is
// validated later by the real load.
func PeekSnapshotKind(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	hdr := make([]byte, 4096)
	n, err := io.ReadFull(f, hdr)
	if err != nil && err != io.ErrUnexpectedEOF {
		return "", fmt.Errorf("%s: read snapshot header: %w", path, err)
	}
	kind, err := wire.PeekKind(hdr[:n])
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return kind, nil
}

// Typed snapshot-load failures, matchable with errors.Is. A checksum
// mismatch means the bytes are all there but corrupt; a truncated file is
// rejected by the v2 header's total-length check before any section is
// parsed (and long before any table is aliased over the bytes).
var (
	ErrSnapshotChecksum  = wire.ErrChecksum
	ErrSnapshotTruncated = wire.ErrTruncated
)

// SchemeFile is a scheme decoded straight over an mmap'd snapshot: the
// fixed-width v2 sections (tree records, bunch arrays, port tables, labels)
// alias the mapping, so loading costs page-cache faults plus index rebuilds
// instead of a full decode, and the pages are shared between every process
// serving the same file.
//
// The mapping must outlive the scheme: Close only after the scheme (and
// anything derived from it) will never be used again. For serving with
// hot-swap, prefer OpenLiveStateFile, which munmaps automatically once the
// generation drains.
type SchemeFile struct {
	Scheme Scheme
	m      *wire.Mapping
}

// Mapped reports whether the snapshot is truly memory-mapped (false on
// platforms without mmap, where the file was read into an aligned buffer;
// aliasing still works, page sharing does not).
func (sf *SchemeFile) Mapped() bool { return sf.m.Mapped() }

// Close releases the mapping. The scheme must not be used afterwards.
func (sf *SchemeFile) Close() error { return sf.m.Close() }

// OpenSchemeFile memory-maps the snapshot at path (read-only) and decodes
// the scheme over the mapped bytes.
func OpenSchemeFile(path string) (*SchemeFile, error) {
	t0 := time.Now()
	m, err := wire.Map(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	snap, err := wire.Parse(m.Bytes())
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s, err := decodeLoad(snap, mappedLoad(m, t0, t1))
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &SchemeFile{Scheme: s, m: m}, nil
}

// mappedLoad is the load event of a snapshot mapped at t0 and parsed from t1
// until now.
func mappedLoad(m *wire.Mapping, t0, t1 time.Time) wire.LoadEvent {
	return wire.LoadEvent{Bytes: int64(len(m.Bytes())), Mapped: m.Mapped(), Map: t1.Sub(t0), Parse: time.Since(t1)}
}

// SaveSchemeFile is SaveScheme into a file created (truncated) at path.
func SaveSchemeFile(path string, s Scheme) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveScheme(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSchemeFile loads the snapshot at path through the mmap fast path: the
// scheme's fixed-width tables alias the mapping, which is kept alive for the
// life of the process (aliased slices are invisible to the garbage
// collector, so there is no safe automatic unmap point). Use OpenSchemeFile
// for an explicit handle, or OpenLiveStateFile for serving with
// munmap-after-drain on hot swap.
func LoadSchemeFile(path string) (Scheme, error) {
	sf, err := OpenSchemeFile(path)
	if err != nil {
		return nil, err
	}
	return sf.Scheme, nil
}
