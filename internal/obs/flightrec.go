package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"time"
)

// FlightEvent is one notable serving event kept by the FlightRecorder:
// an audited bound violation (with the offending route and its trace), an
// edge update, a repair/rebuild/swap transition, or a generation retire.
// Numeric route fields are meaningful only for audit violations; lifecycle
// events carry their context in Detail.
type FlightEvent struct {
	Seq    uint64
	Unix   int64 // UnixNano timestamp, stamped by Record
	Kind   string
	Detail string
	Src    int32
	Dst    int32
	Gen    uint64
	Weight float64
	Dist   float64
	Bound  float64
	Trace  *Trace // decision chain of the re-routed offending query
}

// FlightRecorder is the serving black box: a fixed mutex-protected ring of
// recent FlightEvents, exposed over the admin surface and auto-dumped to a
// JSON file on the first tripped event (an audited bound violation) so
// an anomaly seen once under production load is diagnosable after the fact.
// A nil *FlightRecorder is valid and drops everything, so call sites can
// thread it unconditionally.
type FlightRecorder struct {
	mu       sync.Mutex
	ring     []FlightEvent
	pos      int
	full     bool
	seq      uint64
	dumpPath string
	dumped   bool
	dumpErr  error

	events *Counter
	trips  *Counter
}

// NewFlightRecorder builds a recorder keeping the most recent n events.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 256
	}
	return &FlightRecorder{
		ring:   make([]FlightEvent, n),
		events: &Counter{},
		trips:  &Counter{},
	}
}

// Arm sets the file the ring is dumped to when the first event trips. An
// empty path disarms auto-dumping (events still accumulate in the ring).
func (fr *FlightRecorder) Arm(path string) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.dumpPath = path
	fr.mu.Unlock()
}

// Register exposes the recorder's counters on reg.
func (fr *FlightRecorder) Register(reg *Registry) {
	reg.add(&family{
		name: "compactroute_flightrec_events_total",
		help: "Notable serving events recorded by the flight recorder.",
		typ:  kindCounter, c: fr.events,
	})
	reg.add(&family{
		name: "compactroute_flightrec_trips_total",
		help: "Flight-recorder trips (audited bound violations); the first trip auto-dumps the ring.",
		typ:  kindCounter, c: fr.trips,
	})
}

// Record appends an event to the ring, stamping its sequence number and
// timestamp. The oldest event is overwritten once the ring is full - that is
// the design, not a drop: the recorder keeps the window *around* an anomaly.
func (fr *FlightRecorder) Record(ev FlightEvent) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.record(ev)
	fr.mu.Unlock()
}

func (fr *FlightRecorder) record(ev FlightEvent) {
	fr.seq++
	ev.Seq = fr.seq
	ev.Unix = time.Now().UnixNano()
	fr.ring[fr.pos] = ev
	fr.pos++
	if fr.pos == len(fr.ring) {
		fr.pos, fr.full = 0, true
	}
	fr.events.Inc()
}

// Trip records an anomaly event and, on the first trip with a dump path
// armed, writes the whole ring (the anomaly plus its surrounding event
// window) to that file as JSON.
func (fr *FlightRecorder) Trip(ev FlightEvent) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.record(ev)
	fr.trips.Inc()
	dump := fr.dumpPath != "" && !fr.dumped
	if dump {
		fr.dumped = true
	}
	path := fr.dumpPath
	events := fr.eventsLocked(0)
	fr.mu.Unlock()
	if dump {
		var b strings.Builder
		writeFlightJSON(&b, events)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			fr.mu.Lock()
			fr.dumpErr = err
			fr.mu.Unlock()
		}
	}
}

// Dumped reports whether the auto-dump fired, the path it wrote, and any
// write error.
func (fr *FlightRecorder) Dumped() (path string, ok bool, err error) {
	if fr == nil {
		return "", false, nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.dumpPath, fr.dumped, fr.dumpErr
}

// Events returns up to n most-recent events in chronological order (all of
// them when n <= 0). The returned slice is a snapshot; traces are shared
// pointers but never mutated after Record.
func (fr *FlightRecorder) Events(n int) []FlightEvent {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.eventsLocked(n)
}

func (fr *FlightRecorder) eventsLocked(n int) []FlightEvent {
	size := fr.pos
	if fr.full {
		size = len(fr.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]FlightEvent, 0, n)
	for i := size - n; i < size; i++ {
		idx := i
		if fr.full {
			idx = (fr.pos + i) % len(fr.ring)
		}
		out = append(out, fr.ring[idx])
	}
	return out
}

// WriteJSON dumps up to n most-recent events (chronological; all when
// n <= 0) as a JSON array.
func (fr *FlightRecorder) WriteJSON(w io.Writer, n int) error {
	if fr == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	events := fr.Events(n)
	var b strings.Builder
	writeFlightJSON(&b, events)
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFlightJSON renders events by hand (like TraceSink.WriteJSON) so
// non-finite distances cannot produce invalid JSON.
func writeFlightJSON(b *strings.Builder, events []FlightEvent) {
	b.WriteString("[")
	for i := range events {
		ev := &events[i]
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(b, `{"seq":%d,"t_unix_nano":%d,"kind":%q`, ev.Seq, ev.Unix, ev.Kind)
		if ev.Detail != "" {
			fmt.Fprintf(b, `,"detail":%q`, ev.Detail)
		}
		fmt.Fprintf(b, `,"src":%d,"dst":%d,"gen":%d,"weight":%s,"dist":%s,"bound":%s`,
			ev.Src, ev.Dst, ev.Gen, jsonFloat(ev.Weight), jsonFloat(ev.Dist), jsonFloat(ev.Bound))
		if t := ev.Trace; t != nil {
			fmt.Fprintf(b, `,"trace":{"id":"%016x","hops":%d,"steps":[`, t.ID, t.Hops)
			for j := range t.Steps {
				if j > 0 {
					b.WriteString(",")
				}
				st := &t.Steps[j]
				fmt.Fprintf(b, `{"hop":%d,"at":%d,"phase":%q}`, st.Hop, st.At, st.Phase.String())
			}
			b.WriteString("]}")
		}
		b.WriteString("}")
	}
	b.WriteString("]\n")
}

func jsonFloat(f float64) string {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return "-1"
	}
	return fmtFloat(f)
}
