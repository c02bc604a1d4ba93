package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"compactroute/internal/wire"
)

// v1Stream renders a stream in the retired v1 container layout - no total
// length, no section flags or padding - with a valid checksum, so only the
// version check can reject it.
func v1Stream(kind string, fp uint64, name string, payload []byte) []byte {
	le := binary.LittleEndian
	b := []byte(wire.Magic)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(len(kind)))
	b = append(b, kind...)
	b = le.AppendUint64(b, fp)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(len(name)))
	b = append(b, name...)
	b = le.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return le.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// v2Stream writes a small two-section snapshot with Snapshot.WriteTo.
func v2Stream(t *testing.T) []byte {
	t.Helper()
	s := wire.New("test/v2", 0xfeedface)
	s.Section("plain").Uvarint(300)
	s.AlignedSection("aligned").Uint32Array([]uint32{1, 2, 3})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseRejectsOtherVersions: Parse and PeekKind read only Version; a v1
// stream and a stream from a future version are rejected with an error that
// names the offending version.
func TestParseRejectsOtherVersions(t *testing.T) {
	v3 := v2Stream(t)
	binary.LittleEndian.PutUint32(v3[len(wire.Magic):], 3)
	cases := map[uint32][]byte{
		1: v1Stream("thm11/v1", 42, "thm11/params", []byte{1, 2, 3, 4}),
		3: v3,
	}
	for version, data := range cases {
		want := fmt.Sprintf("version %d", version)
		if _, err := wire.Parse(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse of a version-%d stream: err = %v, want one naming %q", version, err, want)
		}
		if _, err := wire.PeekKind(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("PeekKind of a version-%d stream: err = %v, want one naming %q", version, err, want)
		}
	}
}

// TestWriteToParseRoundTrip: a stream written by Snapshot.WriteTo parses
// back with the same kind, fingerprint and sections, and PeekKind reads the
// kind from its prefix alone.
func TestWriteToParseRoundTrip(t *testing.T) {
	data := v2Stream(t)
	snap, err := wire.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != "test/v2" || snap.Fingerprint != 0xfeedface || snap.Version != wire.Version {
		t.Fatalf("header = (%q, %x, v%d), want (test/v2, feedface, v%d)",
			snap.Kind, snap.Fingerprint, snap.Version, wire.Version)
	}
	if got, want := snap.Sections(), []string{"plain", "aligned"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sections = %v, want %v", got, want)
	}
	d, err := snap.Decoder("plain")
	if err != nil {
		t.Fatal(err)
	}
	if x := d.Uvarint(); x != 300 || d.Finish() != nil {
		t.Fatalf("plain section = %d (%v), want 300", x, d.Finish())
	}
	if d, err = snap.Decoder("aligned"); err != nil {
		t.Fatal(err)
	}
	if xs := d.Uint32Array(); !reflect.DeepEqual(xs, []uint32{1, 2, 3}) || d.Finish() != nil {
		t.Fatalf("aligned section = %v (%v), want [1 2 3]", xs, d.Finish())
	}
	if kind, err := wire.PeekKind(data[:64]); err != nil || kind != "test/v2" {
		t.Fatalf("PeekKind = %q, %v", kind, err)
	}
}

// TestDecode: Decode returns fn's value for a section fn consumes exactly.
// A missing section, an error from fn, a sticky decoder error and one
// unread byte each fail with an error naming the section, and fn's own
// error comes back unchanged.
func TestDecode(t *testing.T) {
	snap, err := wire.Parse(v2Stream(t))
	if err != nil {
		t.Fatal(err)
	}
	if x, err := wire.Decode(snap, "plain", func(d *wire.Decoder) (uint64, error) {
		return d.Uvarint(), nil
	}); err != nil || x != 300 {
		t.Fatalf("Decode(plain) = %d, %v; want 300", x, err)
	}
	boom := errors.New("boom")
	if x, err := wire.Decode(snap, "plain", func(d *wire.Decoder) (uint64, error) {
		return d.Uvarint(), boom
	}); err != boom || x != 0 {
		t.Fatalf("Decode with a failing fn = %d, %v; want 0, fn's error", x, err)
	}
	for _, tc := range []struct {
		name, section, want string
		fn                  func(d *wire.Decoder) (uint64, error)
	}{
		{"missing section", "absent", "no \"absent\" section", func(d *wire.Decoder) (uint64, error) {
			t.Error("fn ran on a missing section")
			return 1, nil
		}},
		{"error from fn", "plain", "value 300 rejected", func(d *wire.Decoder) (uint64, error) {
			x := d.Uvarint()
			d.Failf("value %d rejected", x)
			return x, d.Err()
		}},
		{"sticky decoder error", "plain", "truncated", func(d *wire.Decoder) (uint64, error) {
			return d.Uvarint() + d.Uint64(), nil
		}},
		{"one unread byte", "plain", "1 trailing bytes", func(d *wire.Decoder) (uint64, error) {
			return uint64(d.Byte()), nil
		}},
	} {
		x, err := wire.Decode(snap, tc.section, tc.fn)
		if err == nil || x != 0 || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.section)) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode = %d, %v; want 0 and an error naming %q with %q", tc.name, x, err, tc.section, tc.want)
		}
	}
}
