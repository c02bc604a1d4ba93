package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Phase classifies the routing decision a scheme is about to execute at a
// hop. The paper's schemes are multi-stage (vicinity table hit, Lemma 8
// landmark sequence, tree/cluster descent, name-dictionary lookup); the live
// layer adds the exact fallback on top. Every scheme maps its internal
// packet phases onto this shared vocabulary so traces and the per-decision
// counters are comparable across schemes.
type Phase uint8

const (
	// PhaseNone marks a hop whose scheme does not report phases.
	PhaseNone Phase = iota
	// PhaseVicinity: destination found in the current vertex's vicinity
	// (Lemma 5 ball) table; direct next-hop forwarding.
	PhaseVicinity
	// PhaseSequence: walking a Lemma 8 landmark sequence (inter-landmark
	// segment routing).
	PhaseSequence
	// PhaseToLandmark: heading toward a landmark / representative / via
	// vertex on a shortest-path tree toward it.
	PhaseToLandmark
	// PhaseTree: descending a (cluster, global, or TZ) shortest-path tree
	// toward the destination using its tree label.
	PhaseTree
	// PhaseIntra: intra-color-class routing of the name-independent scheme.
	PhaseIntra
	// PhaseDictionary: name-independent dictionary hop (resolving a name to
	// its label via the color-class dictionary).
	PhaseDictionary
	// PhaseExact: exact-baseline next-hop (full routing table).
	PhaseExact
	// PhaseFallback: live exact fallback - the scheme walk was abandoned
	// (a dead edge or a scheme failure) and an exact shortest path over the
	// effective graph finished the route from the abandon point.
	PhaseFallback

	// NumPhases is the size of the phase vocabulary.
	NumPhases = int(PhaseFallback) + 1
)

var phaseNames = [NumPhases]string{
	"none", "vicinity", "sequence", "to_landmark", "tree",
	"intra", "dictionary", "exact", "fallback",
}

func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseNames returns the phase vocabulary in enum order (for registering the
// per-decision labeled counter).
func PhaseNames() []string {
	return phaseNames[:]
}

// maxTraceSteps bounds the per-hop records kept in one trace; routes longer
// than this record the first maxTraceSteps decisions and keep counting hops.
const maxTraceSteps = 64

// TraceStep is one recorded hop decision.
type TraceStep struct {
	Hop   int   `json:"hop"`
	At    int32 `json:"at"`
	Phase Phase `json:"-"`
}

// Trace is one sampled query's decision chain. Traces are pooled by the
// TraceSink; callers get one from Sample, append steps, and hand it back via
// Done.
type Trace struct {
	ID       uint64
	Src, Dst int32
	Hops     int
	Err      bool
	Stale    bool
	Fallback bool
	Steps    []TraceStep // capped at maxTraceSteps
}

// Step records the phase decision about to be executed at vertex at.
func (t *Trace) Step(at int32, p Phase) {
	if t == nil {
		return
	}
	if len(t.Steps) < maxTraceSteps {
		t.Steps = append(t.Steps, TraceStep{Hop: len(t.Steps), At: at, Phase: p})
	}
}

func (t *Trace) reset(id uint64, src, dst int32) {
	t.ID, t.Src, t.Dst = id, src, dst
	t.Hops = 0
	t.Err, t.Stale, t.Fallback = false, false, false
	t.Steps = t.Steps[:0]
}

// QueryID is the deterministic sampling hash: a pure function of (src, dst)
// (a splitmix64-style finalizer over the packed pair), so the set of sampled
// queries is identical across runs, worker counts, and machines.
func QueryID(src, dst int32) uint64 {
	x := uint64(uint32(src))<<32 | uint64(uint32(dst))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampleBits is the resolution of the sampling threshold: a query is sampled
// iff the low sampleBits of its QueryID fall below rate * 2^sampleBits.
const sampleBits = 20

// SampleThresh converts a sampling rate in [0, 1] to the threshold the low
// sample bits of a QueryID are compared against. It is the one conversion
// both the trace sink and the serve auditor use, so a query audited at rate
// R is exactly the query traced at rate R - audited violations always have
// their trace.
func SampleThresh(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return 1 << sampleBits
	}
	return uint64(rate * float64(uint64(1)<<sampleBits))
}

// SampleHit reports whether the query with the given QueryID falls under a
// SampleThresh threshold.
func SampleHit(id, thresh uint64) bool {
	return id&(1<<sampleBits-1) < thresh
}

// TraceSink owns the trace pool, the ring of recent completed traces, and
// the per-decision counters. A nil *TraceSink is valid and never samples, so
// call sites can thread it unconditionally.
type TraceSink struct {
	thresh uint64 // sample iff QueryID low bits < thresh; 0 disables

	pool sync.Pool

	mu   sync.Mutex
	ring []*Trace
	pos  int
	full bool

	sampled   *Counter
	decisions *LabeledCounter
}

// NewTraceSink builds a sink sampling the given rate (0..1) of queries,
// keeping the most recent bufN completed traces.
func NewTraceSink(rate float64, bufN int) *TraceSink {
	if bufN <= 0 {
		bufN = 256
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s := &TraceSink{
		thresh: uint64(rate * float64(uint64(1)<<sampleBits)),
		ring:   make([]*Trace, bufN),
	}
	if rate >= 1 {
		s.thresh = 1 << sampleBits
	}
	s.pool.New = func() any {
		return &Trace{Steps: make([]TraceStep, 0, maxTraceSteps)}
	}
	s.sampled = &Counter{}
	s.decisions = newLabeledCounter("phase", PhaseNames())
	return s
}

// Register exposes the sink's counters on reg.
func (s *TraceSink) Register(reg *Registry) {
	reg.add(&family{
		name: "compactroute_trace_sampled_total",
		help: "Queries selected by deterministic trace sampling.",
		typ:  kindCounter, c: s.sampled,
	})
	reg.add(&family{
		name: "compactroute_route_decisions_total",
		help: "Per-hop routing decisions observed in sampled traces, by phase.",
		typ:  kindCounter, lc: s.decisions,
	})
}

// Sampled reports whether the query (src, dst) would be sampled.
func (s *TraceSink) Sampled(src, dst int32) bool {
	return s != nil && QueryID(src, dst)&(1<<sampleBits-1) < s.thresh
}

// Sample returns a trace recorder for the query, or nil when the query is
// not selected. The not-selected path is a hash and a compare - no locking,
// no allocation - so it can run per query at any rate including 0.
func (s *TraceSink) Sample(src, dst int32) *Trace {
	if s == nil || s.thresh == 0 {
		return nil
	}
	id := QueryID(src, dst)
	if id&(1<<sampleBits-1) >= s.thresh {
		return nil
	}
	t := s.pool.Get().(*Trace)
	t.reset(id, src, dst)
	return t
}

// Done completes a sampled trace: per-decision counters are bumped and the
// trace enters the ring (evicting the oldest back into the pool). Passing
// nil is a no-op, so callers can invoke Done unconditionally.
func (s *TraceSink) Done(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.sampled.Inc()
	for i := range t.Steps {
		s.decisions.Add(int(t.Steps[i].Phase), 1)
	}
	s.mu.Lock()
	old := s.ring[s.pos]
	s.ring[s.pos] = t
	s.pos++
	if s.pos == len(s.ring) {
		s.pos, s.full = 0, true
	}
	s.mu.Unlock()
	if old != nil {
		s.pool.Put(old)
	}
}

// Discard returns an unfinished trace to the pool without recording it.
func (s *TraceSink) Discard(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.pool.Put(t)
}

// DecisionCount returns the number of recorded decisions for a phase.
func (s *TraceSink) DecisionCount(p Phase) uint64 {
	if s == nil {
		return 0
	}
	return s.decisions.Value(int(p))
}

// SampledCount returns the number of completed sampled traces.
func (s *TraceSink) SampledCount() uint64 {
	if s == nil {
		return 0
	}
	return s.sampled.Value()
}

// last returns up to n most-recent completed traces, newest first. The
// returned traces are snapshots (copied under the lock) so the ring can keep
// recycling.
func (s *TraceSink) last(n int) []Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	size := s.pos
	if s.full {
		size = len(s.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := (s.pos - 1 - i + len(s.ring)) % len(s.ring)
		t := s.ring[idx]
		if t == nil {
			break
		}
		cp := *t
		cp.Steps = append([]TraceStep(nil), t.Steps...)
		out = append(out, cp)
	}
	return out
}

// WriteJSON dumps up to n most-recent traces (newest first) as a JSON array.
func (s *TraceSink) WriteJSON(w io.Writer, n int) error {
	if s == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	traces := s.last(n)
	var b strings.Builder
	b.WriteString("[")
	for i := range traces {
		t := &traces[i]
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"id":"%016x","src":%d,"dst":%d,"hops":%d,"err":%t,"stale":%t,"fallback":%t,"steps":[`,
			t.ID, t.Src, t.Dst, t.Hops, t.Err, t.Stale, t.Fallback)
		for j := range t.Steps {
			if j > 0 {
				b.WriteString(",")
			}
			st := &t.Steps[j]
			fmt.Fprintf(&b, `{"hop":%d,"at":%d,"phase":%q}`, st.Hop, st.At, st.Phase.String())
		}
		b.WriteString("]}")
	}
	b.WriteString("]\n")
	_, err := io.WriteString(w, b.String())
	return err
}
