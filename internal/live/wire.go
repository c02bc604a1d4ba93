package live

import (
	"compactroute/internal/graph"
	"compactroute/internal/wire"
)

// OverlaySection is the snapshot section the overlay journal is stored
// under. It rides inside an ordinary scheme snapshot (section framing is
// self-describing, and decoders only read the sections they know), so a
// churned serving state - preprocessed scheme plus the delta the network
// has drifted by - round-trips through the same file format as a clean one.
const OverlaySection = "live/overlay"

// EncodeOverlay writes the overlay journal: the update version and every
// entry in canonical (u, v) order, each as (u, v, alive, weight).
func EncodeOverlay(snap *wire.Snapshot, ov *Overlay) {
	e := snap.Section(OverlaySection)
	entries := ov.Entries()
	e.Uint64(ov.Version())
	e.Uint32(uint32(len(entries)))
	for _, en := range entries {
		e.Vertex(en.U)
		e.Vertex(en.V)
		e.Bool(en.Alive)
		e.Float64(en.W)
	}
}

// HasOverlay reports whether the snapshot carries an overlay journal.
func HasOverlay(snap *wire.Snapshot) bool {
	for _, name := range snap.Sections() {
		if name == OverlaySection {
			return true
		}
	}
	return false
}

// DecodeOverlay reads the journal written by EncodeOverlay and restores it
// as a fresh overlay over base, validating every entry against the base
// graph (dead entries must name base edges, weights must be positive and
// finite, the order canonical). base must be the graph decoded from the
// same snapshot.
func DecodeOverlay(snap *wire.Snapshot, base *graph.Graph) (*Overlay, error) {
	return wire.Decode(snap, OverlaySection, func(d *wire.Decoder) (*Overlay, error) {
		version := d.Uint64()
		c := d.Count(17) // u + v + alive + weight per entry
		if d.Err() != nil {
			return nil, d.Err()
		}
		entries := make([]Entry, c)
		for i := range entries {
			entries[i] = Entry{U: d.Vertex(), V: d.Vertex(), Alive: d.Bool(), W: d.Float64()}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		ov := NewOverlay(base)
		if err := ov.RestoreEntries(entries, version); err != nil {
			d.Failf("%v", err)
			return nil, d.Err()
		}
		return ov, nil
	})
}
