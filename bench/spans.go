package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// reqSpanEvery samples wire request spans: one request in reqSpanEvery
// gets a span, which keeps a 30 s pass at a few hundred thousand spans.
// Spans around in-process layer calls are never sampled.
const reqSpanEvery = 16

// maxSpans bounds the spans kept in memory; later ones are counted as
// dropped.
const maxSpans = 1 << 18

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one wire request share its request id; Req is -1 for
// spans that belong to no request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one workload run in memory until writeTrace. A
// nil *tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is an open span; end records it.
type scope struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span named name under parent (0 for a root span).
func (t *tracer) begin(name string, parent int64) scope {
	if t == nil {
		return scope{}
	}
	return scope{t: t, id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
}

func (s scope) end() {
	if s.t != nil {
		s.t.add(s.id, s.parent, s.name, -1, s.start, time.Now())
	}
}

// timed runs fn inside a span and returns its duration, traced or not.
func (t *tracer) timed(name string, parent int64, fn func()) time.Duration {
	var id int64
	if t != nil {
		id = t.ids.Add(1)
	}
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.add(id, parent, name, -1, start, end)
	}
	return end.Sub(start)
}

// request records the span of one wire route request.
func (t *tracer) request(parent, req int64, start, end time.Time) {
	if t != nil {
		t.add(t.ids.Add(1), parent, "routeserve.route", req, start, end)
	}
}

func (t *tracer) add(id, parent int64, name string, req int64, start, end time.Time) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
			Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// writeTrace writes the spans of every traced workload to dir/trace.json.
func writeTrace(dir string, seed int64, results []*result) error {
	type workloadTrace struct {
		Name    string `json:"name"`
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}
	doc := struct {
		Seed         int64           `json:"seed"`
		ReqSpanEvery int             `json:"request_span_every"`
		Workloads    []workloadTrace `json:"workloads"`
	}{Seed: seed, ReqSpanEvery: reqSpanEvery}
	for _, r := range results {
		if t := r.spans; t != nil {
			t.mu.Lock()
			doc.Workloads = append(doc.Workloads, workloadTrace{Name: r.workload, Dropped: t.dropped, Spans: t.spans})
			t.mu.Unlock()
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
