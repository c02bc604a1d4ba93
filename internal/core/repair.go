package core

import (
	"fmt"
	"slices"

	"compactroute/internal/graph"
	"compactroute/internal/parallel"
	"compactroute/internal/vicinity"
)

// InterRepairConfig carries the inputs of an incremental Lemma 8 repair
// after edge updates. The partitions (U and W) are those of the original
// build and must be unchanged - the caller escalates to a full rebuild when
// the coloring or the landmark set moved.
type InterRepairConfig struct {
	Graph *graph.Graph     // the updated graph
	Paths graph.PathSource // canonical shortest paths over the updated graph
	// Vics are the repaired vicinities (same q-tilde as the original build;
	// clean sets may be shared with the old family).
	Vics []*vicinity.Set
	Reps [][]graph.Vertex // relay representatives over Vics, as InterConfig.Reps
	// VicDirty[x] reports that B(x) changed, which dirties every sequence
	// whose construction walked through x. So does a row of Reps that
	// differs from the old one.
	VicDirty []bool
	// SeqDirty reports that the stored sequence u->w must be rebuilt for a
	// reason the waypoint scan cannot see: the caller's geodesic analysis
	// found an updated edge on (or newly on) a canonical path the sequence
	// construction consulted. It is called concurrently and must be
	// read-only. nil means no extra dirtiness.
	SeqDirty func(u, w graph.Vertex, waypoints []graph.Vertex) bool
}

// Repair returns a new Inter over the updated graph that is bit-identical
// to NewInter on the same inputs, rebuilding only the sequences the config
// marks dirty (directly via SeqDirty, or transitively via a dirty vicinity
// or changed relay representative at the source or any stored waypoint -
// every vertex whose tables the sequence construction consulted is one of
// those). Clean sequences are copied from the receiver's layout. The second
// return value is the number of rebuilt sequences.
//
// Errors mean the repair preconditions do not hold (a changed doubling
// unit, a part that no longer intersects a dirty vicinity, an unreachable
// dirty pair); the caller escalates to a full rebuild.
func (in *Inter) Repair(cfg InterRepairConfig) (*Inter, int, error) {
	n := cfg.Graph.N()
	if n != in.g.N() || len(cfg.Vics) != n || len(cfg.Reps) != n || len(cfg.VicDirty) != n {
		return nil, 0, fmt.Errorf("core: repair config arrays must have length n=%d", in.g.N())
	}
	if sc := minEdgeWeight(cfg.Graph); sc != in.scale {
		// The doubling thresholds of every stored sequence are multiples of
		// scale/b; a changed minimum edge weight re-seeds all of them.
		return nil, 0, fmt.Errorf("core: minimum edge weight changed %v -> %v", in.scale, sc)
	}
	out := &Inter{
		g:       cfg.Graph,
		vics:    cfg.Vics,
		uPartOf: in.uPartOf,
		wPartOf: in.wPartOf,
		b:       in.b,
		eps:     in.eps,
		scale:   in.scale,
		// maxDist is what a from-scratch build would compute on the new
		// graph; it only sizes the runaway guard of buildSequence, so clean
		// sequences stay valid.
		maxDist:  maxDistBound(cfg.Paths),
		relayRep: cfg.Reps,
		parts:    in.parts,
	}
	if err := out.checkRelayReps(); err != nil {
		return nil, 0, err
	}
	relayChanged := make([]bool, n)
	for u := range relayChanged {
		relayChanged[u] = !slices.Equal(out.relayRep[u][:in.parts], in.relayRep[u][:in.parts])
	}
	f := &in.flat
	runs := make([][]interSeq, n)
	rebuiltPer := make([]int, n)
	if err := parallel.ForErr(n, func(ui int) error {
		u := graph.Vertex(ui)
		lo, hi := int(f.srcOff[ui]), int(f.srcOff[ui+1])
		if lo == hi {
			return nil // no targets
		}
		j := in.uPartOf[ui]
		// A dirty vicinity or changed relay at the source invalidates every
		// sequence of the source (the B(u) shortcut and the first hops are
		// consulted for all of them).
		selfDirty := cfg.VicDirty[ui] || relayChanged[ui]
		run := make([]interSeq, hi-lo)
		for si := lo; si < hi; si++ {
			sq := f.seq(si)
			d := selfDirty
			if !d {
				for _, wp := range sq.waypoints {
					if cfg.VicDirty[wp] || relayChanged[wp] {
						d = true
						break
					}
				}
			}
			if !d && cfg.SeqDirty != nil {
				d = cfg.SeqDirty(u, sq.target, sq.waypoints)
			}
			if d {
				w := sq.target
				var err error
				if sq, err = out.buildSequence(cfg.Paths, u, w, j); err != nil {
					return fmt.Errorf("core: inter repair %d->%d: %w", u, w, err)
				}
				rebuiltPer[ui]++
			}
			run[si-lo] = sq
		}
		runs[ui] = run
		return nil
	}); err != nil {
		return nil, 0, err
	}
	out.flat = layoutSeqs(runs)
	rebuilt := 0
	for _, c := range rebuiltPer {
		rebuilt += c
	}
	return out, rebuilt, nil
}
