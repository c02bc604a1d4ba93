// Package wire defines the versioned binary snapshot format that persists
// preprocessed routing schemes: build once with cmd/routebench -save (or
// compactroute.SaveScheme), then serve forever from cmd/routeserve without
// paying the construction cost again.
//
// # Format
//
// A snapshot is a single self-describing byte stream. The current (v2)
// layout is
//
//	magic "CRSNAP01" | version u32 | total length u64 | kind string |
//	graph fingerprint u64 | section count u32 | sections... | crc32c u32
//
// where every integer is little-endian, a string is a u32 length followed by
// its bytes, and a section is a name string, a u32 flags word, a u64 payload
// length, a u32 pad length, pad zero bytes and the payload bytes. Sections
// flagged SecAligned are padded so their payload starts at a stream offset
// that is a multiple of 64; fixed-width arrays inside them (see ArrayHeader)
// can then be aliased in place over an mmap'd file instead of copied out.
// The total-length field lets a truncated file be rejected with ErrTruncated
// before the checksum runs (and before any section is aliased); the trailing
// checksum (CRC-32 Castagnoli) covers everything before it. The kind string
// names the scheme's registered decoder; the fingerprint ties the scheme
// sections to the exact graph stored in the snapshot's "graph" section (see
// graph.Fingerprint).
//
// Only v2 streams are read. A stream of any other version - including the
// v1 layout of earlier releases, which had no total length and no section
// flags or padding - is rejected with an error naming its version; rebuild
// such a snapshot from its graph, options and seed (routebench -save).
//
// # Kind registry
//
// Scheme packages register a decoder for their kind in an init function
// (wire.Register); encoding is the wire.Encodable interface implemented by
// the scheme type. A registered decoder reads each of its sections through
// wire.Decode. A new scheme adds one wire.go file and appears in
// SaveScheme/LoadScheme without any change here.
//
// # Robustness
//
// Decoding arbitrary bytes must fail cleanly, never panic and never
// over-allocate (FuzzDecodeSnapshot enforces this): every count is validated
// against the bytes that remain before a slice is made, and allocations that
// are not proportional to consumed input (graph arrays, n-sized tables) are
// charged against a budget of allocFactor bytes per input byte via
// Decoder.Alloc. Decoders read sections only through Decode, which rejects a
// section that is not consumed exactly, so no trailing or unread byte of a
// section goes unnoticed.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"compactroute/internal/graph"
	"compactroute/internal/simnet"
)

// Magic identifies a compactroute snapshot stream.
const Magic = "CRSNAP01"

// Version is the format version WriteTo writes and the only one Parse and
// PeekKind accept.
const Version = 2

// SecAligned flags a section whose payload is padded to start at a stream
// offset that is a multiple of SectionAlign, so fixed-width arrays inside it
// stay aliasable over a page-aligned mapping of the file.
const SecAligned = 1 << 0

// SectionAlign is the stream alignment of SecAligned section payloads.
const SectionAlign = 64

// Typed decode failures. Errors returned by Parse (and everything layered on
// it: Read, LoadScheme, LoadSchemeFile) match these with errors.Is, so a
// caller can distinguish a file that is too short from one whose bytes were
// damaged. A truncated stream reports ErrTruncated before the checksum runs -
// and before any section is aliased.
var (
	ErrChecksum  = errors.New("snapshot checksum mismatch")
	ErrTruncated = errors.New("snapshot truncated")
)

// allocFactor bounds decode-time allocation: a snapshot of k bytes may
// allocate at most allocFactor*k + allocFloor bytes through Decoder.Alloc.
// Honest snapshots store at least 4 bytes per word of reconstructed state,
// so the factor leaves an order of magnitude of headroom; crafted inputs
// (a huge vertex count in a tiny stream) are rejected before the make.
const (
	allocFactor = 64
	allocFloor  = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder appends little-endian primitives to an in-memory section buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded bytes accumulated so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes accumulated so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Byte appends one byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Uint32 appends a little-endian uint32.
func (e *Encoder) Uint32(x uint32) {
	e.buf = append(e.buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

// Uint64 appends a little-endian uint64.
func (e *Encoder) Uint64(x uint64) {
	e.buf = append(e.buf,
		byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}

// Int32 appends a little-endian int32 (two's complement).
func (e *Encoder) Int32(x int32) { e.Uint32(uint32(x)) }

// Float64 appends the IEEE-754 bits of x, little-endian.
func (e *Encoder) Float64(x float64) { e.Uint64(math.Float64bits(x)) }

// String appends a u32 length followed by the string bytes.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Vertex appends a vertex id as an int32 (NoVertex is -1).
func (e *Encoder) Vertex(v graph.Vertex) { e.Int32(int32(v)) }

// Port appends a port number as an int32 (NoPort is -1).
func (e *Encoder) Port(p graph.Port) { e.Int32(int32(p)) }

// Decoder reads little-endian primitives from one section's payload with a
// sticky error: after the first failure every read returns a zero value and
// Err reports the cause. Counts are validated against the remaining bytes
// before any slice is allocated.
type Decoder struct {
	section string
	buf     []byte
	off     int
	err     error
	// budget, when non-nil, is the shared remaining-allocation budget of the
	// snapshot this decoder was opened from (see Alloc).
	budget *int64
}

// NewDecoder wraps raw bytes for decoding, with no allocation budget. It is
// the entry point for unit tests of individual structures; snapshot decoding
// uses Decode, whose decoder shares the snapshot's budget.
func NewDecoder(name string, data []byte) *Decoder {
	return &Decoder{section: name, buf: data}
}

// Failf records a decoding error (the first one wins). Scheme decoders use
// it to report validation failures with the section context attached.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: section %q: %s", d.section, fmt.Sprintf(format, args...))
	}
}

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns the sticky error, or an error if unread bytes remain: a
// well-formed section is consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: section %q: %d trailing bytes", d.section, d.Remaining())
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Failf("truncated: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte and requires it to be 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("invalid bool byte")
		return false
	}
}

// Uint32 reads a little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Uint64 reads a little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Int32 reads a little-endian int32.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Float64 reads IEEE-754 bits, little-endian.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Vertex reads a vertex id.
func (d *Decoder) Vertex() graph.Vertex { return graph.Vertex(d.Int32()) }

// Port reads a port number.
func (d *Decoder) Port() graph.Port { return graph.Port(d.Int32()) }

// Count reads a u32 element count and validates that elemBytes*count does
// not exceed the remaining payload, so a corrupted count cannot drive an
// oversized allocation.
func (d *Decoder) Count(elemBytes int) int {
	c := d.Uint32()
	if d.err != nil {
		return 0
	}
	if elemBytes > 0 && int64(c)*int64(elemBytes) > int64(d.Remaining()) {
		d.Failf("count %d (x%d bytes) exceeds remaining %d bytes", c, elemBytes, d.Remaining())
		return 0
	}
	return int(c)
}

// String reads a u32 length followed by the string bytes.
func (d *Decoder) String() string {
	n := d.Count(1)
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Alloc charges an allocation of the given size against the snapshot's
// decode budget and reports whether it is allowed. Callers must check the
// result (or Err) before allocating state whose size is not already bounded
// by the bytes consumed - n-sized arrays, adjacency structures, tables.
func (d *Decoder) Alloc(bytes int64) bool {
	if d.err != nil {
		return false
	}
	if bytes < 0 {
		d.Failf("negative allocation")
		return false
	}
	if d.budget != nil {
		if *d.budget < bytes {
			d.Failf("allocation of %d bytes exceeds the decode budget", bytes)
			return false
		}
		*d.budget -= bytes
	}
	return true
}

// section is one named, length-prefixed payload of a snapshot.
type section struct {
	name  string
	flags uint32
	enc   Encoder // encode side
	data  []byte  // decode side
}

// Snapshot is an in-memory snapshot being encoded or decoded: a scheme kind,
// the fingerprint of the graph it was preprocessed for, and an ordered list
// of named sections.
type Snapshot struct {
	Kind        string
	Fingerprint uint64
	Version     int
	sections    []*section
	budget      int64
}

// New starts an empty snapshot for encoding.
func New(kind string, fingerprint uint64) *Snapshot {
	return &Snapshot{Kind: kind, Fingerprint: fingerprint, Version: Version}
}

// Section returns the encoder of the named section, creating it (in call
// order) on first use.
func (s *Snapshot) Section(name string) *Encoder {
	for _, sec := range s.sections {
		if sec.name == name {
			return &sec.enc
		}
	}
	sec := &section{name: name}
	s.sections = append(s.sections, sec)
	return &sec.enc
}

// AlignedSection is Section with the SecAligned flag set: the section's
// payload will be padded to a 64-byte stream offset by WriteTo, so the
// fixed-width arrays written into it (ArrayHeader and friends) can be
// aliased in place when the snapshot is decoded from an mmap'd file.
func (s *Snapshot) AlignedSection(name string) *Encoder {
	e := s.Section(name)
	for _, sec := range s.sections {
		if sec.name == name {
			sec.flags |= SecAligned
		}
	}
	return e
}

// Sections returns the section names in stream order.
func (s *Snapshot) Sections() []string {
	names := make([]string, len(s.sections))
	for i, sec := range s.sections {
		names[i] = sec.name
	}
	return names
}

// WriteTo serializes the snapshot in the v2 layout: header (with the total
// stream length), sections (SecAligned payloads padded to 64-byte stream
// offsets), trailing checksum. Section payloads are streamed from their
// encoder buffers (the checksum is maintained incrementally), so writing
// never copies the snapshot into a second contiguous buffer.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var hdr Encoder
	hdr.buf = append(hdr.buf, Magic...)
	hdr.Uint32(Version)
	totalAt := hdr.Len()
	hdr.Uint64(0) // total length, patched below
	hdr.String(s.Kind)
	hdr.Uint64(s.Fingerprint)
	hdr.Uint32(uint32(len(s.sections)))
	// Lay out the section headers against running stream offsets so aligned
	// payloads land on 64-byte boundaries, then patch the total length.
	off := int64(hdr.Len())
	heads := make([][]byte, len(s.sections))
	for i, sec := range s.sections {
		var sh Encoder
		sh.String(sec.name)
		sh.Uint32(sec.flags)
		sh.Uint64(uint64(len(sec.enc.buf)))
		pad := int64(0)
		if sec.flags&SecAligned != 0 {
			at := off + int64(sh.Len()) + 4 // stream offset just past the pad-length field
			pad = -at & (SectionAlign - 1)
		}
		sh.Uint32(uint32(pad))
		for j := int64(0); j < pad; j++ {
			sh.Byte(0)
		}
		heads[i] = sh.buf
		off += int64(len(sh.buf)) + int64(len(sec.enc.buf))
	}
	total := uint64(off + 4) // + trailing crc
	for i := 0; i < 8; i++ {
		hdr.buf[totalAt+i] = byte(total >> (8 * i))
	}

	var written int64
	var crc uint32
	emit := func(b []byte) error {
		crc = crc32.Update(crc, castagnoli, b)
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	if err := emit(hdr.buf); err != nil {
		return written, err
	}
	for i, sec := range s.sections {
		if err := emit(heads[i]); err != nil {
			return written, err
		}
		if err := emit(sec.enc.buf); err != nil {
			return written, err
		}
	}
	var tail Encoder
	tail.Uint32(crc) // covers everything before it; not fed back into emit
	n, err := w.Write(tail.buf)
	written += int64(n)
	return written, err
}

// Read parses and verifies a snapshot stream: magic, version, checksum and
// section framing. Section payloads are not interpreted here; scheme
// decoders read them through Decode.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wire: read snapshot: %w", err)
	}
	return Parse(data)
}

// PeekKind parses only the stream prefix - magic, version, kind string -
// out of the leading bytes of a snapshot, without requiring the rest of the
// stream or its checksum. Callers that dispatch on the kind before paying
// for a full decode (e.g. choosing a rebuild recipe) use this; the real
// Read/Parse still validates everything.
func PeekKind(prefix []byte) (string, error) {
	if len(prefix) < len(Magic) || string(prefix[:len(Magic)]) != Magic {
		return "", fmt.Errorf("wire: bad magic in snapshot prefix")
	}
	d := NewDecoder("header", prefix[len(Magic):])
	version := d.Uint32()
	if d.err == nil && version != Version {
		return "", unsupportedVersion(version)
	}
	d.Uint64() // total stream length
	kind := d.String()
	if d.err != nil {
		return "", fmt.Errorf("wire: snapshot prefix too short to hold the kind string")
	}
	return kind, nil
}

// Parse is Read over bytes already in memory. Decoding a v2 snapshot keeps
// references into data (aliased array sections), so the caller must not
// mutate or unmap data while the decoded scheme is in use.
func Parse(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4 {
		return nil, fmt.Errorf("wire: %w: %d bytes is too short for a header", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("wire: bad magic %q", data[:len(Magic)])
	}
	version := uint32(data[8]) | uint32(data[9])<<8 | uint32(data[10])<<16 | uint32(data[11])<<24
	if version != Version {
		return nil, unsupportedVersion(version)
	}
	return parseV2(data)
}

// unsupportedVersion is the error for a stream whose version is not Version.
func unsupportedVersion(v uint32) error {
	return fmt.Errorf("wire: unsupported snapshot version %d (this build reads only version %d; rebuild the snapshot, e.g. with routebench -save)", v, Version)
}

// parseV2 reads the v2 layout. The total-length check runs first so a
// truncated file is rejected as ErrTruncated before the checksum and before
// any section bytes are referenced.
func parseV2(data []byte) (*Snapshot, error) {
	hdrLen := len(Magic) + 4 + 8 // magic, version, total length
	if len(data) < hdrLen+4 {
		return nil, fmt.Errorf("wire: %w: %d bytes is too short for a v2 header", ErrTruncated, len(data))
	}
	var total uint64
	for i := 0; i < 8; i++ {
		total |= uint64(data[len(Magic)+4+i]) << (8 * i)
	}
	if total < uint64(hdrLen+4) {
		return nil, fmt.Errorf("wire: v2 header claims impossible total length %d", total)
	}
	if total > uint64(len(data)) {
		return nil, fmt.Errorf("wire: %w: header says %d bytes, file has %d", ErrTruncated, total, len(data))
	}
	if total < uint64(len(data)) {
		return nil, fmt.Errorf("wire: %d trailing bytes after the %d-byte snapshot", uint64(len(data))-total, total)
	}
	body, tail := data[:total-4], data[total-4:total]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("wire: %w: stream says %08x, content is %08x", ErrChecksum, want, got)
	}
	d := NewDecoder("header", body[hdrLen:])
	snap := &Snapshot{
		Kind:        d.String(),
		Fingerprint: d.Uint64(),
		Version:     Version,
		budget:      allocFactor*int64(len(data)) + allocFloor,
	}
	nsec := d.Count(16) // a section costs at least its header
	for i := 0; i < nsec && d.err == nil; i++ {
		name := d.String()
		flags := d.Uint32()
		plen := d.Uint64()
		pad := d.Uint32()
		if d.err != nil {
			break
		}
		if pad >= SectionAlign {
			d.Failf("section %q claims %d pad bytes", name, pad)
			break
		}
		d.take(int(pad))
		if flags&SecAligned != 0 {
			if at := hdrLen + d.off; at%SectionAlign != 0 {
				d.Failf("section %q flagged aligned but its payload starts at stream offset %d", name, at)
				break
			}
		}
		if plen > uint64(d.Remaining()) {
			d.Failf("section %q claims %d bytes, only %d remain", name, plen, d.Remaining())
			break
		}
		payload := d.take(int(plen))
		snap.sections = append(snap.sections, &section{name: name, flags: flags, data: payload})
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return snap, nil
}

// Decoder opens the named section for decoding. The returned decoder shares
// the snapshot's allocation budget. Scheme decoders use Decode instead;
// Decoder is for tools that inspect a section without consuming it.
func (s *Snapshot) Decoder(name string) (*Decoder, error) {
	for _, sec := range s.sections {
		if sec.name == name {
			return &Decoder{section: name, buf: sec.data, budget: &s.budget}, nil
		}
	}
	return nil, fmt.Errorf("wire: snapshot has no %q section", name)
}

// Decode opens the named section, runs fn on its decoder and requires the
// section to be consumed exactly (Finish). It returns fn's value, or the
// first error unchanged: the missing section, fn's own error, or the
// decoder's sticky error or trailing bytes.
func Decode[T any](s *Snapshot, name string, fn func(d *Decoder) (T, error)) (T, error) {
	var zero T
	d, err := s.Decoder(name)
	if err != nil {
		return zero, err
	}
	v, err := fn(d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return zero, err
	}
	return v, nil
}

// Encodable is implemented by scheme types that can be persisted. WireKind
// names the registered decoder; EncodeSnapshot writes the scheme's sections
// (the graph section is written by the caller).
type Encodable interface {
	WireKind() string
	EncodeSnapshot(s *Snapshot) error
}

// DecodeFunc reconstructs a scheme from its snapshot sections over the
// already-decoded graph. The result must be behaviorally identical to the
// scheme that was encoded: same routing decisions, labels, headers and
// table words.
type DecodeFunc func(g *graph.Graph, s *Snapshot) (simnet.Scheme, error)

// registry maps scheme kinds to decoders. Registration happens in package
// init functions, before any concurrent access, so a plain map suffices.
var registry = map[string]DecodeFunc{}

// Register installs the decoder for a scheme kind. It panics on duplicate
// registration, which is always a programming error.
func Register(kind string, fn DecodeFunc) {
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("wire: duplicate registration of kind %q", kind))
	}
	registry[kind] = fn
}

// DecoderFor returns the registered decoder for a kind.
func DecoderFor(kind string) (DecodeFunc, bool) {
	fn, ok := registry[kind]
	return fn, ok
}

// Kinds returns the registered scheme kinds (order unspecified).
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	return out
}
