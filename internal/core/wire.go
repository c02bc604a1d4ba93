package core

import (
	"sort"

	"compactroute/internal/graph"
	"compactroute/internal/treeroute"
	"compactroute/internal/wire"
)

// EncodeWireV2 writes the Lemma 8 state that cannot be re-derived without a
// PathSource: the distance upper bound and the per-source target sequences
// in the v2 aligned layout - per-source target offsets, sorted target ids, a
// relay bitset, waypoint offsets and one shared waypoint slab, five
// fixed-width arrays that decode as zero-copy aliases over the mapped
// snapshot and are served directly via binary search over each source's
// target run. The section this lands in must be an AlignedSection.
func (in *Inter) EncodeWireV2(e *wire.Encoder) {
	e.Float64(in.maxDist)
	f := &in.flat
	e.Uint32Array(f.srcOff)
	e.VertexArray(f.targets)
	e.Uint32Array(f.relay)
	e.Uint32Array(f.wpOff)
	e.VertexArray(f.wps)
}

// EncodeIntraWireV2 writes the Lemma 7 state that cannot be re-derived
// without a PathSource: the per-source waypoint sequences, uvarint-framed,
// targets in increasing id order so the stream is deterministic. The hitting
// set, the landmark trees, the nearest-hitting-set table and the
// destinations' tree labels are pure functions of the restore inputs and are
// rebuilt on decode.
func (in *Intra) EncodeIntraWireV2(e *wire.Encoder) {
	for u := range in.seqs {
		targets := make([]graph.Vertex, 0, len(in.seqs[u]))
		for v := range in.seqs[u] {
			targets = append(targets, v)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		e.Uvarint(uint64(len(targets)))
		prev := graph.Vertex(0)
		for _, v := range targets {
			sq := in.seqs[u][v]
			e.Uvarint(uint64(v - prev)) // targets ascending
			prev = v
			if sq.landmark == graph.NoVertex {
				e.Uvarint(0)
			} else {
				e.Uvarint(uint64(sq.landmark) + 1)
			}
			e.Uvarint(uint64(len(sq.waypoints)))
			for _, wp := range sq.waypoints {
				e.Uvarint(uint64(wp))
			}
		}
	}
}

// RestoreIntraV2 rebuilds a Lemma 7 structure from a sequence stream written
// by EncodeIntraWireV2: the derivable state comes from cfg (cfg.Paths is not
// consulted), the sequences from d. Decoded ids are validated - vertices in
// range, targets in the source's part, landmarks members of the re-derived
// hitting set with the destination present in their tree - so a corrupt
// snapshot fails instead of panicking or misrouting.
func RestoreIntraV2(cfg IntraConfig, d *wire.Decoder) (*Intra, error) {
	in, err := newIntraBase(cfg)
	if err != nil {
		d.Failf("%v", err)
		return nil, d.Err()
	}
	n := in.g.N()
	if !d.Alloc(int64(n) * 16) { // per-source map headers
		return nil, d.Err()
	}
	for u := 0; u < n; u++ {
		c := int(d.Uvarint())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if c < 0 || c > n {
			d.Failf("source %d claims %d sequences (n=%d)", u, c, n)
			return nil, d.Err()
		}
		if !d.Alloc(int64(c) * 48) { // map entries + waypoint headers
			return nil, d.Err()
		}
		in.seqs[u] = make(map[graph.Vertex]intraSeq, c)
		prev := graph.Vertex(0)
		for i := 0; i < c; i++ {
			prev += graph.Vertex(d.Uvarint())
			v := prev
			lm := graph.Vertex(d.Uvarint()) - 1
			wps := decodeWaypointsV2(d, n)
			if d.Err() != nil {
				return nil, d.Err()
			}
			if v < 0 || int(v) >= n {
				d.Failf("sequence target %d out of range", v)
				return nil, d.Err()
			}
			if in.partOf[u] != in.partOf[v] {
				d.Failf("sequence %d->%d crosses parts", u, v)
				return nil, d.Err()
			}
			sq := intraSeq{waypoints: wps, landmark: lm}
			if lm != graph.NoVertex {
				tr, ok := in.trees[lm]
				if !ok {
					d.Failf("sequence %d->%d names %d, which is not a hitting-set landmark", u, v, lm)
					return nil, d.Err()
				}
				sq.treeLbl = tr.LabelOf(v)
				if sq.treeLbl == treeroute.NoLabel {
					d.Failf("destination %d missing from landmark tree %d", v, lm)
					return nil, d.Err()
				}
			}
			if _, dup := in.seqs[u][v]; dup {
				d.Failf("duplicate sequence %d->%d", u, v)
				return nil, d.Err()
			}
			in.seqs[u][v] = sq
		}
	}
	return in, nil
}

// RestoreInterV2 rebuilds a Lemma 8 structure from the aligned flat layout
// of EncodeWireV2, with the derivable state from cfg (cfg.Paths is not
// consulted): the five arrays alias the snapshot bytes and are validated
// structurally (offsets monotone and consistent, targets ascending per
// source, every id in range) in a handful of linear passes - no maps are
// rebuilt, which is what keeps the thm11 mmap cold start near page-table
// cost.
func RestoreInterV2(cfg InterConfig, d *wire.Decoder) (*Inter, error) {
	in, err := newInterBase(cfg)
	if err != nil {
		d.Failf("%v", err)
		return nil, d.Err()
	}
	in.maxDist = d.Float64()
	n := in.g.N()
	f := &in.flat
	f.srcOff = d.Uint32Array()
	f.targets = d.VertexArray()
	f.relay = d.Uint32Array()
	f.wpOff = d.Uint32Array()
	f.wps = d.VertexArray()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(f.srcOff) != n+1 || f.srcOff[0] != 0 {
		d.Failf("sequence source offsets have length %d, want %d starting at 0", len(f.srcOff), n+1)
		return nil, d.Err()
	}
	totalSeqs := len(f.targets)
	if int(f.srcOff[n]) != totalSeqs {
		d.Failf("sequence source offsets end at %d, want %d", f.srcOff[n], totalSeqs)
		return nil, d.Err()
	}
	if len(f.relay) != (totalSeqs+31)/32 {
		d.Failf("relay bitset has %d words for %d sequences", len(f.relay), totalSeqs)
		return nil, d.Err()
	}
	if len(f.wpOff) != totalSeqs+1 || f.wpOff[0] != 0 || int(f.wpOff[totalSeqs]) != len(f.wps) {
		d.Failf("waypoint offsets disagree with the waypoint slab")
		return nil, d.Err()
	}
	for u := 0; u < n; u++ {
		if f.srcOff[u+1] < f.srcOff[u] || int(f.srcOff[u+1]) > totalSeqs {
			d.Failf("sequence source offsets not monotone at %d", u)
			return nil, d.Err()
		}
		run := f.targets[f.srcOff[u]:f.srcOff[u+1]]
		for i, w := range run {
			if w < 0 || int(w) >= n {
				d.Failf("sequence target %d out of range", w)
				return nil, d.Err()
			}
			if i > 0 && run[i-1] >= w {
				d.Failf("sequence targets of %d not ascending (duplicate %d?)", u, w)
				return nil, d.Err()
			}
		}
	}
	for si := 0; si < totalSeqs; si++ {
		if f.wpOff[si+1] < f.wpOff[si] {
			d.Failf("waypoint offsets not monotone at sequence %d", si)
			return nil, d.Err()
		}
	}
	for _, wp := range f.wps {
		if wp < 0 || int(wp) >= n {
			d.Failf("waypoint %d out of range", wp)
			return nil, d.Err()
		}
	}
	return in, nil
}

// decodeWaypointsV2 reads a uvarint-framed waypoint list, validating ids
// against n before anything escapes.
func decodeWaypointsV2(d *wire.Decoder, n int) []graph.Vertex {
	c := int(d.Uvarint())
	if d.Err() != nil {
		return nil
	}
	if c < 0 || c > d.Remaining() {
		d.Failf("waypoint list claims %d entries with %d bytes remaining", c, d.Remaining())
		return nil
	}
	if c == 0 {
		return nil
	}
	if !d.Alloc(int64(c) * 4) {
		return nil
	}
	out := make([]graph.Vertex, c)
	for i := range out {
		wp := d.Uvarint()
		if wp >= uint64(n) {
			d.Failf("waypoint %d out of range", wp)
			return nil
		}
		out[i] = graph.Vertex(wp)
	}
	if d.Err() != nil {
		return nil
	}
	return out
}
