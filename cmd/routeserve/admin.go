package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"compactroute"
)

// This file is routeserve's HTTP admin surface (-admin-addr): Prometheus and
// JSON metric exposition, a health probe carrying the snapshot fingerprint
// and serving generation, the sampled-trace dump, and the standard pprof
// handlers. It is a sidecar to the line protocol - scraping it never blocks
// a query, and both read the same obs registry.

// startAdmin binds addr and serves the admin mux until the listener closes.
// The returned closer shuts the listener down; run defers it.
func (s *server) startAdmin(addr string) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: s.adminMux(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	return ln.Addr(), func() { _ = hs.Close() }, nil
}

func (s *server) adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.health())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 16
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = s.sink.WriteJSON(w, n)
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		n := 0 // all recorded events
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = s.flight.WriteJSON(w, n)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthReply is the JSON shape of /healthz. Fingerprint identifies the
// served graph (it changes when a live rebuild swaps in a churned graph);
// generation counts hot-swaps since startup.
type healthReply struct {
	Status      string `json:"status"`
	Scheme      string `json:"scheme"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	Generation  uint64 `json:"generation"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Live        bool   `json:"live"`
}

func (s *server) health() healthReply {
	scheme := s.currentScheme()
	g := scheme.Graph()
	h := healthReply{
		Status:      "ok",
		Scheme:      scheme.Name(),
		Kind:        compactroute.SnapshotKind(scheme),
		Fingerprint: fmt.Sprintf("%016x", g.Fingerprint()),
		Vertices:    g.N(),
		Edges:       g.M(),
		Live:        s.live,
		Generation:  s.eng.Generation(),
	}
	return h
}

// registerLoadMetrics installs the process-wide snapshot-load observer and
// exposes the last load through reg. It is installed before the snapshot is
// loaded so the startup load is the first event captured; the observer stays
// installed for the process lifetime, so any later load refreshes the
// gauges. The returned uninstall func is deferred by run so back-to-back
// runs in one process (tests) never see each other's observer.
func registerLoadMetrics(reg *compactroute.MetricsRegistry) (uninstall func()) {
	var (
		mu sync.Mutex
		ev compactroute.SnapshotLoadEvent
	)
	compactroute.SetSnapshotLoadObserver(func(e compactroute.SnapshotLoadEvent) {
		mu.Lock()
		ev = e
		mu.Unlock()
	})
	read := func(f func(compactroute.SnapshotLoadEvent) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return f(ev)
		}
	}
	reg.GaugeFunc("compactroute_snapshot_load_seconds",
		"Total duration of the last snapshot load (map + parse + decode).",
		read(func(e compactroute.SnapshotLoadEvent) float64 {
			return (e.Map + e.Parse + e.Decode).Seconds()
		}))
	reg.GaugeFunc("compactroute_snapshot_load_map_seconds",
		"Open/mmap portion of the last snapshot load.",
		read(func(e compactroute.SnapshotLoadEvent) float64 { return e.Map.Seconds() }))
	reg.GaugeFunc("compactroute_snapshot_load_parse_seconds",
		"Container-parse portion of the last snapshot load.",
		read(func(e compactroute.SnapshotLoadEvent) float64 { return e.Parse.Seconds() }))
	reg.GaugeFunc("compactroute_snapshot_load_decode_seconds",
		"Scheme decode/alias portion of the last snapshot load.",
		read(func(e compactroute.SnapshotLoadEvent) float64 { return e.Decode.Seconds() }))
	reg.GaugeFunc("compactroute_snapshot_bytes",
		"Bytes backing the loaded snapshot.",
		read(func(e compactroute.SnapshotLoadEvent) float64 { return float64(e.Bytes) }))
	reg.GaugeFunc("compactroute_snapshot_mapped",
		"1 when the snapshot tables are served from a memory mapping.",
		read(func(e compactroute.SnapshotLoadEvent) float64 {
			if e.Mapped {
				return 1
			}
			return 0
		}))
	return func() { compactroute.SetSnapshotLoadObserver(nil) }
}

// registerHeapMetric exposes the heap bytes held in objects, read from
// runtime/metrics at scrape time. A mapped snapshot adds little heap of its
// own; what grows after the load - the vicinity lookup tables that routes
// build lazily, for one - shows here and in no snapshot gauge.
func registerHeapMetric(reg *compactroute.MetricsRegistry) {
	reg.GaugeFunc("compactroute_heap_objects_bytes",
		"Heap bytes occupied by live objects and dead objects not yet swept (/memory/classes/heap/objects:bytes).",
		func() float64 {
			s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			metrics.Read(s)
			return float64(s[0].Value.Uint64())
		})
}
