// Command routeserve loads a scheme snapshot (written by routebench -save
// or compactroute.SaveScheme) and serves route and distance queries from it
// - the online half of the build-once / serve-forever split the snapshot
// subsystem exists for.
//
// Usage:
//
//	routeserve -snapshot thm11.snap [-workers 0] [-verify] [-json]
//	           [-listen addr]
//	routeserve -snapshot thm11.snap -live [-eps 0.5] [-tz-k 2]
//	           [-mem-budget 256] ...
//	routeserve -snapshot thm11.snap -loadgen [-queries 100000] [-batch 4096]
//	           [-seed 2015] [-workers 0] [-verify] [-json]
//
// In server mode, commands are read line by line from stdin (or from each
// TCP connection when -listen is given):
//
//	route U V    route a packet from U to V
//	dist U V     true shortest-path distance (computed on demand, cached)
//	stats        live serving statistics (QPS, hop quantiles, stretch)
//	trace [N]    dump the last N sampled route traces as JSON (-trace-sample)
//	quit         close the session
//
// Every mode serves the memory-mapped snapshot through the same engine (a
// snapshot carrying an overlay journal, written by SaveLiveState, restores
// its churned state). With -live the protocol gains admin commands and the
// stats line its churn counters:
//
//	addedge U V W   insert the edge {U, V} with weight W
//	deledge U V     delete the edge {U, V}
//	setw U V W      change the weight of {U, V} to W
//	rebuild         rebuild the scheme for the churned graph and hot-swap
//	repair          incrementally repair the scheme in place (dirty-set
//	                invalidation; Theorem 11 schemes built by this process)
//	refresh         policy-driven: repair small deltas, rebuild large ones
//
// Queries keep flowing during churn (dead edges are detoured around,
// reported as measured staleness stretch in stats) and during a rebuild
// (the swap is one atomic pointer flip). -eps/-seed/-tz-k parameterize the
// rebuild constructor; dist reports distances in the *effective* (churned)
// graph.
//
// With -admin-addr the process additionally serves an HTTP admin surface:
// /metrics (Prometheus text exposition of every serving, churn and snapshot
// metric), /metrics.json, /healthz (snapshot fingerprint + serving
// generation), /trace?n=K (sampled route traces) and /debug/pprof/*. The
// stats command and /metrics read the same registry, so the line protocol
// and a scrape can never disagree. -trace-sample enables deterministic
// hash-based per-query tracing (the same query IDs are picked on every run
// at any worker count); -hold keeps a -loadgen process alive after the run
// so its endpoints can be scraped.
//
// -audit-sample attaches the online route auditor: the same deterministic
// hash sample of delivered queries is shadow-verified off the hot path by
// -audit-workers background workers using the bounded bidirectional kernel,
// publishing the compactroute_audit_* instruments (verified / violation /
// stale counts, minimum bound headroom, windowed stretch drift, lag and
// backlog). Every serving mode also carries a flight recorder - a fixed ring
// of notable events (audited violations with route and trace, edge updates,
// rebuild/repair/swap/retire transitions) served at /debug/flightrec;
// -flightrec PATH arms it to auto-dump the ring to PATH as JSON on the first
// audited violation or drift breach.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting,
// drains in-flight queries, flushes a final stats line and exits 0.
//
// Responses are single lines, JSON objects under -json. With -verify every
// route response also carries the true distance and observed stretch, and
// deliveries are checked against the scheme's proved stretch bound.
//
// In -loadgen mode, routeserve is its own closed-loop benchmark client: it
// samples -queries random pairs, serves them in batches of -batch across
// -workers shards, and prints a throughput/quality summary - the harness
// behind experiment E13 (see EXPERIMENTS.md).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"compactroute"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "routeserve:", err)
		os.Exit(1)
	}
}

// server bundles the serving engine and the observability instruments one
// serving process holds. -live only unlocks
// the admin commands and the live stats line; both modes serve through the
// same engine.
type server struct {
	eng      *compactroute.LiveEngine
	reg      *compactroute.MetricsRegistry
	sink     *compactroute.TraceSink
	audit    *compactroute.RouteAuditor
	flight   *compactroute.FlightRecorder
	live     bool
	verify   bool
	jsonMode bool
	snapSize int64
}

// currentScheme returns the scheme being served. It is read through the
// engine's generation pointer on every call: a rebuild on one connection
// hot-swaps it while other connections keep serving, so the server must
// never cache it in a plain field.
func (s *server) currentScheme() compactroute.Scheme { return s.eng.Scheme() }

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("routeserve", flag.ContinueOnError)
	var (
		snapshot = fs.String("snapshot", "", "scheme snapshot file to serve (required)")
		workers  = fs.Int("workers", 0, "serving shards (0 = all cores)")
		verify   = fs.Bool("verify", false, "verify every delivery against the proved stretch bound")
		jsonMode = fs.Bool("json", false, "emit JSON responses and summaries")
		budget   = fs.Int("mem-budget", 256, "live: distance row-cache budget in MiB of the rebuild constructor")
		listen   = fs.String("listen", "", "serve the line protocol on this TCP address instead of stdin")
		liveMode = fs.Bool("live", false, "serve through the live engine: admin commands (addedge/deledge/setw/rebuild), staleness-aware stats")
		eps      = fs.Float64("eps", 0.5, "live: epsilon of the rebuild constructor")
		tzK      = fs.Int("tz-k", 2, "live: k of the rebuild constructor for Thorup-Zwick snapshots")
		loadgen  = fs.Bool("loadgen", false, "run the closed-loop load generator instead of serving")
		queries  = fs.Int("queries", 100000, "loadgen: total queries to serve")
		batch    = fs.Int("batch", 4096, "loadgen: queries per batch")
		seed     = fs.Int64("seed", 2015, "loadgen pair-sampling seed; live rebuild seed")

		adminAddr = fs.String("admin-addr", "", "serve /metrics, /healthz, /trace and /debug/pprof on this HTTP address")
		traceRate = fs.Float64("trace-sample", 0, "fraction of queries to trace (deterministic hash sample; 0 disables)")
		traceBuf  = fs.Int("trace-buf", 256, "completed traces kept for the trace command and /trace")
		hold      = fs.Bool("hold", false, "loadgen: stay up (admin endpoints scrapeable) after the run until SIGINT/SIGTERM")

		auditRate    = fs.Float64("audit-sample", 0, "fraction of delivered queries to shadow-verify off the hot path (deterministic hash sample; 0 disables)")
		auditWorkers = fs.Int("audit-workers", 1, "background shadow-verification workers for -audit-sample")
		flightPath   = fs.String("flightrec", "", "arm the flight recorder: auto-dump its event ring to this JSON file on the first audited violation or drift breach")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" {
		return errors.New("-snapshot is required")
	}
	if *liveMode && *loadgen {
		return errors.New("-live and -loadgen are mutually exclusive")
	}
	st, err := os.Stat(*snapshot)
	if err != nil {
		return err
	}
	// Every serving mode carries the obs registry: the engines register their
	// statistics on it, the stats command formats from it, and -admin-addr
	// exposes it. The load observer goes in before the snapshot load below so
	// the startup load lands in the snapshot gauges.
	srv := &server{live: *liveMode, verify: *verify, jsonMode: *jsonMode, snapSize: st.Size()}
	srv.reg = compactroute.NewMetricsRegistry()
	srv.sink = compactroute.NewTraceSink(*traceRate, *traceBuf)
	srv.sink.Register(srv.reg)
	// Every serving mode carries a flight recorder (the ring costs nothing
	// until something records into it); -flightrec arms the auto-dump. The
	// auditor only exists when sampling is on - its workers belong to the
	// engine, which starts them when the options carry a non-nil auditor.
	srv.flight = compactroute.NewFlightRecorder(512)
	srv.flight.Register(srv.reg)
	if *flightPath != "" {
		srv.flight.Arm(*flightPath)
	}
	if *auditRate > 0 {
		srv.audit = compactroute.NewRouteAuditor(*auditRate, *auditWorkers, 8192)
		srv.audit.Register(srv.reg)
		defer srv.audit.Close()
	}
	defer registerLoadMetrics(srv.reg)()
	opts := compactroute.LiveServeOptions{Workers: *workers, Verify: *verify,
		Obs: srv.reg, Trace: srv.sink, Audit: srv.audit, FlightRec: srv.flight}
	if *liveMode {
		// The rebuild recipe is derived from the snapshot kind; a kind
		// without one only disables the rebuild command.
		kind, err := compactroute.PeekSnapshotKind(*snapshot)
		if err != nil {
			return err
		}
		schemeOpts := compactroute.Options{Eps: *eps, Seed: *seed, K: *tzK}
		// Kinds with a repair recipe get the coupled build+repair pair (a
		// rebuild through it re-arms in-place repair for later deltas);
		// everything else falls back to the plain rebuild recipe.
		if build, repair, err := compactroute.RepairFuncFor(kind, schemeOpts, *budget); err == nil {
			opts.Build, opts.Repair = build, repair
		} else if build, err := compactroute.RebuildFuncFor(kind, schemeOpts, *budget); err == nil {
			opts.Build = build
		}
	}
	// Both modes serve straight off the mapped snapshot; a live rebuild
	// swaps in a heap generation and the mapping is released once the
	// mapped one drains.
	eng, err := compactroute.OpenLiveStateFile(*snapshot, opts)
	if err != nil {
		return err
	}
	defer eng.Close()
	srv.eng = eng
	if *adminAddr != "" {
		addr, stop, err := srv.startAdmin(*adminAddr)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(out, "# admin on %s\n", addr)
	}
	// Server modes shut down gracefully on SIGINT/SIGTERM: stop accepting,
	// drain in-flight queries, flush a final stats line, exit 0. A held
	// loadgen run reuses the same signals to end the scrape window.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if *loadgen {
		if err := srv.runLoadgen(out, *queries, *batch, *seed); err != nil {
			return err
		}
		if *hold {
			fmt.Fprintln(out, "# holding for scrape; SIGINT/SIGTERM to exit")
			<-sig
		}
		return nil
	}
	if *listen != "" {
		return srv.listenAndServe(*listen, out, sig)
	}
	srv.banner(out)
	done := make(chan error, 1)
	go func() { done <- srv.serveConn(in, out) }()
	select {
	case err := <-done:
		return err
	case <-sig:
		srv.finalStats(out)
		return nil
	}
}

func (s *server) banner(out io.Writer) {
	scheme := s.currentScheme()
	g := scheme.Graph()
	mode := "static"
	if s.live {
		mode = "live"
	}
	fmt.Fprintf(out, "# serving %s (kind %s, %s) on G(n=%d, m=%d): %d workers, %d snapshot bytes, verify=%v\n",
		scheme.Name(), compactroute.SnapshotKind(scheme), mode, g.N(), g.M(),
		s.eng.Workers(), s.snapSize, s.verify)
}

// finalStats flushes the shutdown stats line.
func (s *server) finalStats(out io.Writer) {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "# shutdown: ")
	s.writeStats(w, json.NewEncoder(w))
	w.Flush()
}

// listenAndServe accepts TCP connections and speaks the line protocol on
// each until the listener fails or a shutdown signal arrives; on signal it
// stops accepting, unblocks and drains the open sessions, prints the final
// stats line and returns nil.
func (s *server) listenAndServe(addr string, out io.Writer, sig <-chan os.Signal) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# listening on %s\n", l.Addr())
	s.banner(out)
	var (
		mu       sync.Mutex
		open     = map[net.Conn]struct{}{}
		draining bool
		wg       sync.WaitGroup
	)
	acceptDone := make(chan error, 1)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				acceptDone <- err
				return
			}
			mu.Lock()
			if draining {
				mu.Unlock()
				conn.Close()
				continue
			}
			open[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					mu.Lock()
					delete(open, conn)
					mu.Unlock()
					conn.Close()
				}()
				_ = s.serveConn(conn, conn)
			}()
		}
	}()
	select {
	case err := <-acceptDone:
		return err
	case <-sig:
		l.Close()
		// Unblock sessions parked in Read; in-flight commands finish first
		// because each command is served and written before the next Read.
		mu.Lock()
		draining = true
		for conn := range open {
			_ = conn.SetReadDeadline(time.Now())
		}
		mu.Unlock()
		wg.Wait()
		s.finalStats(out)
		return nil
	}
}

// routeReply is the JSON shape of a route response. The numeric result
// fields are never omitted: 0 hops / weight 0 (routing to oneself) and
// distance 0 are legitimate answers a client must be able to read.
type routeReply struct {
	Op      string  `json:"op"`
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Hops    int     `json:"hops"`
	Weight  float64 `json:"weight"`
	Header  int     `json:"header"`
	Dist    float64 `json:"dist"`
	Stretch float64 `json:"stretch"`
	// Live-mode extras: a route that crossed a detour or fell back to the
	// exact search is flagged stale.
	Stale    bool   `json:"stale,omitempty"`
	Detours  int    `json:"detours,omitempty"`
	Fallback bool   `json:"fallback,omitempty"`
	Err      string `json:"err,omitempty"`
}

// adminReply is the JSON shape of addedge/deledge/setw/rebuild responses.
type adminReply struct {
	Op         string  `json:"op"`
	Version    uint64  `json:"version,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
	TookSec    float64 `json:"took_sec,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// serveConn runs the line protocol until EOF or "quit". Malformed commands
// produce an error line and the session continues.
func (s *server) serveConn(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	w := bufio.NewWriter(out)
	defer w.Flush()
	enc := json.NewEncoder(w)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if quit := s.serveCommand(w, enc, fields); quit {
			return w.Flush()
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// serveCommand executes one protocol command; it reports whether the
// session asked to close.
func (s *server) serveCommand(w *bufio.Writer, enc *json.Encoder, fields []string) (quit bool) {
	n := s.currentScheme().Graph().N()
	switch cmd := fields[0]; cmd {
	case "quit", "exit":
		return true
	case "stats":
		s.writeStats(w, enc)
	case "trace":
		nTr := 16
		if len(fields) == 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				s.errLine(w, enc, cmd, fmt.Errorf("bad count %q", fields[1]))
				break
			}
			nTr = v
		} else if len(fields) > 2 {
			s.errLine(w, enc, cmd, errors.New("want: trace [N]"))
			break
		}
		_ = s.sink.WriteJSON(w, nTr)
	case "route":
		u, v, err := parsePair(fields, n)
		if err != nil {
			s.errLine(w, enc, cmd, err)
			break
		}
		s.serveRoute(w, enc, u, v)
	case "dist":
		u, v, err := parsePair(fields, n)
		if err != nil {
			s.errLine(w, enc, cmd, err)
			break
		}
		d := s.eng.Distances().Dist(u, v)
		if s.jsonMode {
			// JSON has no +Inf; an unreachable pair is reported as
			// dist -1 with an explicit marker (encoding Inf would
			// make Encode fail and the client would get no reply).
			rep := routeReply{Op: "dist", Src: int(u), Dst: int(v), Dist: d}
			if math.IsInf(d, 1) {
				rep.Dist = -1
				rep.Err = "unreachable"
			}
			_ = enc.Encode(rep)
		} else {
			fmt.Fprintf(w, "dist %d %d %g\n", u, v, d)
		}
	case "addedge", "deledge", "setw", "rebuild", "repair", "refresh":
		if !s.live {
			s.errLine(w, enc, cmd, errors.New("admin commands need -live"))
			break
		}
		s.serveAdmin(w, enc, cmd, fields)
	default:
		s.errLine(w, enc, cmd, fmt.Errorf("unknown command (want route | dist | stats | trace | addedge | deledge | setw | rebuild | repair | refresh | quit)"))
	}
	return false
}

func (s *server) serveRoute(w *bufio.Writer, enc *json.Encoder, u, v compactroute.Vertex) {
	res := s.eng.Route(u, v)
	if res.Err != nil {
		s.errLine(w, enc, "route", res.Err)
		return
	}
	rep := routeReply{Op: "route", Src: int(u), Dst: int(v), Hops: res.Hops,
		Weight: res.Weight, Header: res.HeaderWords,
		Stale: res.Stale(), Detours: res.Detours, Fallback: res.Fallback}
	if s.verify {
		rep.Dist = s.eng.Distances().Dist(u, v)
		if rep.Dist > 0 {
			rep.Stretch = rep.Weight / rep.Dist
		}
	}
	if s.jsonMode {
		_ = enc.Encode(rep)
		return
	}
	fmt.Fprintf(w, "route %d %d hops=%d weight=%g header=%d", u, v, rep.Hops, rep.Weight, rep.Header)
	if s.verify {
		fmt.Fprintf(w, " dist=%g", rep.Dist)
		if rep.Dist > 0 {
			fmt.Fprintf(w, " stretch=%.3f", rep.Stretch)
		}
	}
	if rep.Stale {
		fmt.Fprintf(w, " stale=1 detours=%d fallback=%v", rep.Detours, rep.Fallback)
	}
	fmt.Fprintln(w)
}

// serveAdmin executes one live-engine admin command.
func (s *server) serveAdmin(w *bufio.Writer, enc *json.Encoder, cmd string, fields []string) {
	n := s.currentScheme().Graph().N()
	switch cmd {
	case "rebuild", "repair", "refresh":
		run := s.eng.Rebuild
		switch cmd {
		case "repair":
			run = s.eng.Repair
		case "refresh":
			run = s.eng.Refresh
		}
		start := time.Now()
		if err := run(); err != nil {
			s.errLine(w, enc, cmd, err)
			return
		}
		took := time.Since(start)
		if s.jsonMode {
			_ = enc.Encode(adminReply{Op: cmd, Generation: s.eng.Generation(), TookSec: took.Seconds()})
		} else {
			fmt.Fprintf(w, "ok %s gen=%d took=%s\n", cmd, s.eng.Generation(), took.Round(time.Millisecond))
		}
	case "addedge", "setw":
		u, v, wt, err := parseEdgeWeight(fields, n)
		if err != nil {
			s.errLine(w, enc, cmd, err)
			return
		}
		up := compactroute.SetEdgeWeight(u, v, wt)
		if cmd == "addedge" {
			up = compactroute.InsertEdge(u, v, wt)
		}
		s.applyAdmin(w, enc, cmd, up)
	case "deledge":
		u, v, err := parsePair(fields, n)
		if err != nil {
			s.errLine(w, enc, cmd, err)
			return
		}
		s.applyAdmin(w, enc, cmd, compactroute.RemoveEdge(u, v))
	}
}

func (s *server) applyAdmin(w *bufio.Writer, enc *json.Encoder, cmd string, up compactroute.EdgeUpdate) {
	if err := s.eng.ApplyUpdates([]compactroute.EdgeUpdate{up}); err != nil {
		s.errLine(w, enc, cmd, err)
		return
	}
	version := s.eng.Overlay().Version()
	if s.jsonMode {
		_ = enc.Encode(adminReply{Op: cmd, Version: version})
	} else {
		fmt.Fprintf(w, "ok %s version=%d\n", cmd, version)
	}
}

// auditSegment formats the stats-line audit suffix and the JSON audit block
// from a registry collect pass; both are empty/nil when no auditor is
// attached, so the pinned pre-audit line formats are unchanged.
func (s *server) auditSegment(v map[string]float64) (string, *auditStatsReply) {
	if s.audit == nil {
		return "", nil
	}
	rep := &auditStatsReply{
		Sampled:     uint64(v["compactroute_audit_sampled_total"]),
		Verified:    uint64(v["compactroute_audit_verified_total"]),
		Violations:  uint64(v["compactroute_audit_violations_total"]),
		Stale:       uint64(v["compactroute_audit_stale_total"]),
		Dropped:     uint64(v["compactroute_audit_dropped_total"]),
		Backlog:     int(v["compactroute_audit_backlog"]),
		MinHeadroom: v["compactroute_audit_headroom_min"],
		Drift:       v["compactroute_audit_drift"],
	}
	seg := fmt.Sprintf(" audit(sampled=%d verified=%d viol=%d stale=%d dropped=%d backlog=%d headroom=%.3f drift=%.3f)",
		rep.Sampled, rep.Verified, rep.Violations, rep.Stale, rep.Dropped,
		rep.Backlog, rep.MinHeadroom, rep.Drift)
	return seg, rep
}

// writeStats formats the stats reply from the obs registry - the same
// collect pass /metrics scrapes - so the line protocol and the admin surface
// are one source of truth. The line formats are part of the protocol and
// unchanged from the pre-registry implementation.
func (s *server) writeStats(w *bufio.Writer, enc *json.Encoder) {
	v := s.reg.Values()
	auditSeg, auditRep := s.auditSegment(v)
	base := statsReply{
		Queries:    uint64(v["compactroute_queries_total"]),
		QPS:        v["compactroute_qps"],
		Errors:     uint64(v["compactroute_route_errors_total"]),
		Violations: uint64(v["compactroute_bound_violations_total"]),
		P50Hops:    int(v["compactroute_hops_p50"]),
		P99Hops:    int(v["compactroute_hops_p99"]),
		MeanHops:   v["compactroute_hops_mean"],
		MaxStretch: v["compactroute_stretch_max"],
		Audit:      auditRep,
	}
	if s.live {
		rep := liveStatsReply{
			statsReply:     base,
			Generation:     uint64(v["compactroute_live_generation"]),
			OverlayVersion: uint64(v["compactroute_live_overlay_version"]),
			OverlayDel:     int(v["compactroute_live_overlay_deleted"]),
			OverlayAdd:     int(v["compactroute_live_overlay_inserted"]),
			OverlaySetw:    int(v["compactroute_live_overlay_reweighted"]),
			StaleServed:    uint64(v["compactroute_live_stale_served_total"]),
			MaxStale:       v["compactroute_live_stale_stretch_max"],
			DeadEdgeHits:   uint64(v["compactroute_live_dead_edge_hits_total"]),
			Detours:        uint64(v["compactroute_live_detours_total"]),
			Fallbacks:      uint64(v["compactroute_live_fallbacks_total"]),
			Rebuilds:       uint64(v["compactroute_live_rebuilds_total"]),
			Swaps:          uint64(v["compactroute_live_swaps_total"]),
			Repairs:        uint64(v["compactroute_live_repairs_total"]),
			RepairErrors:   uint64(v["compactroute_live_repair_errors_total"]),
			Escalations:    uint64(v["compactroute_live_escalations_total"]),
			LastRepairSec:  v["compactroute_live_last_repair_seconds"],
			RepairVics:     int(v["compactroute_live_repair_dirty_vicinities"]),
			RepairClusters: int(v["compactroute_live_repair_dirty_clusters"]),
			RepairSeqs:     int(v["compactroute_live_repair_dirty_sequences"]),
			RepairLabels:   int(v["compactroute_live_repair_dirty_labels"]),
		}
		if s.jsonMode {
			_ = enc.Encode(rep)
		} else {
			lastRepair := time.Duration(rep.LastRepairSec * float64(time.Second))
			fmt.Fprintf(w, "stats queries=%d qps=%.0f errors=%d viol=%d hops(p50=%d p99=%d mean=%.2f) stretch(max=%.3f) gen=%d overlay(del=%d add=%d setw=%d v=%d) stale(served=%d max=%.3f) detours=%d fallbacks=%d rebuilds=%d repairs=%d escalations=%d swaps=%d repair(last=%s vics=%d clusters=%d seqs=%d labels=%d)%s\n",
				rep.Queries, rep.QPS, rep.Errors, rep.Violations,
				rep.P50Hops, rep.P99Hops, rep.MeanHops, rep.MaxStretch,
				rep.Generation, rep.OverlayDel, rep.OverlayAdd, rep.OverlaySetw, rep.OverlayVersion,
				rep.StaleServed, rep.MaxStale, rep.Detours, rep.Fallbacks,
				rep.Rebuilds, rep.Repairs, rep.Escalations, rep.Swaps,
				lastRepair.Round(time.Millisecond), rep.RepairVics,
				rep.RepairClusters, rep.RepairSeqs, rep.RepairLabels, auditSeg)
		}
		return
	}
	if s.jsonMode {
		_ = enc.Encode(base)
	} else {
		fmt.Fprintf(w, "stats queries=%d qps=%.0f errors=%d viol=%d hops(p50=%d p99=%d mean=%.2f) stretch(max=%.3f)%s\n",
			base.Queries, base.QPS, base.Errors, base.Violations,
			base.P50Hops, base.P99Hops, base.MeanHops, base.MaxStretch, auditSeg)
	}
}

func (s *server) errLine(w io.Writer, enc *json.Encoder, op string, err error) {
	if s.jsonMode {
		_ = enc.Encode(routeReply{Op: op, Err: err.Error()})
	} else {
		fmt.Fprintf(w, "err %s: %v\n", op, err)
	}
}

func parsePair(fields []string, n int) (u, v compactroute.Vertex, err error) {
	if len(fields) != 3 {
		return 0, 0, fmt.Errorf("want: %s U V", fields[0])
	}
	return parseUV(fields[0], fields[1], fields[2], n)
}

func parseUV(op, us, vs string, n int) (u, v compactroute.Vertex, err error) {
	ui, err := strconv.Atoi(us)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vertex %q", us)
	}
	vi, err := strconv.Atoi(vs)
	if err != nil {
		return 0, 0, fmt.Errorf("bad vertex %q", vs)
	}
	if ui < 0 || ui >= n || vi < 0 || vi >= n {
		return 0, 0, fmt.Errorf("vertex out of range [0,%d)", n)
	}
	return compactroute.Vertex(ui), compactroute.Vertex(vi), nil
}

func parseEdgeWeight(fields []string, n int) (u, v compactroute.Vertex, w float64, err error) {
	if len(fields) != 4 {
		return 0, 0, 0, fmt.Errorf("want: %s U V W", fields[0])
	}
	u, v, err = parseUV(fields[0], fields[1], fields[2], n)
	if err != nil {
		return 0, 0, 0, err
	}
	w, err = strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad weight %q", fields[3])
	}
	return u, v, w, nil
}

// loadgenSummary is the JSON shape of a load-generator run, the record
// format of BENCH_pr4.json.
type loadgenSummary struct {
	Scheme        string  `json:"scheme"`
	Kind          string  `json:"kind"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Workers       int     `json:"workers"`
	Verify        bool    `json:"verify"`
	Queries       uint64  `json:"queries"`
	Errors        uint64  `json:"errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	QPS           float64 `json:"qps"`
	MeanHops      float64 `json:"mean_hops"`
	P50Hops       int     `json:"p50_hops"`
	P99Hops       int     `json:"p99_hops"`
	MaxStretch    float64 `json:"max_stretch"`
	Violations    uint64  `json:"violations"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	TableWords    int64   `json:"table_words"`
	// Audit is present only when -audit-sample attached the route auditor;
	// the run fails on any audited violation, same as synchronous verify.
	Audit *auditStatsReply `json:"audit,omitempty"`
}

type statsReply struct {
	Queries    uint64  `json:"queries"`
	QPS        float64 `json:"qps"`
	Errors     uint64  `json:"errors"`
	Violations uint64  `json:"violations"`
	P50Hops    int     `json:"p50_hops"`
	P99Hops    int     `json:"p99_hops"`
	MeanHops   float64 `json:"mean_hops"`
	MaxStretch float64 `json:"max_stretch"`
	// Audit is present only when -audit-sample attached the route auditor.
	Audit *auditStatsReply `json:"audit,omitempty"`
}

// auditStatsReply is the JSON shape of the auditor segment of a stats reply.
type auditStatsReply struct {
	Sampled     uint64  `json:"sampled"`
	Verified    uint64  `json:"verified"`
	Violations  uint64  `json:"violations"`
	Stale       uint64  `json:"stale"`
	Dropped     uint64  `json:"dropped"`
	Backlog     int     `json:"backlog"`
	MinHeadroom float64 `json:"min_headroom"`
	Drift       float64 `json:"drift"`
}

type liveStatsReply struct {
	statsReply
	Generation     uint64  `json:"generation"`
	OverlayVersion uint64  `json:"overlay_version"`
	OverlayDel     int     `json:"overlay_deleted"`
	OverlayAdd     int     `json:"overlay_inserted"`
	OverlaySetw    int     `json:"overlay_reweighted"`
	StaleServed    uint64  `json:"stale_served"`
	MaxStale       float64 `json:"max_stale_stretch"`
	DeadEdgeHits   uint64  `json:"dead_edge_hits"`
	Detours        uint64  `json:"detours"`
	Fallbacks      uint64  `json:"fallbacks"`
	Rebuilds       uint64  `json:"rebuilds"`
	Swaps          uint64  `json:"swaps"`
	Repairs        uint64  `json:"repairs"`
	RepairErrors   uint64  `json:"repair_errors"`
	Escalations    uint64  `json:"escalations"`
	LastRepairSec  float64 `json:"last_repair_sec"`
	RepairVics     int     `json:"repair_dirty_vicinities"`
	RepairClusters int     `json:"repair_dirty_clusters"`
	RepairSeqs     int     `json:"repair_dirty_seqs"`
	RepairLabels   int     `json:"repair_dirty_labels"`
}

// runLoadgen is the closed-loop benchmark: it serves `queries` sampled
// pairs in batches and reports throughput and quality. It fails (non-zero
// exit) on any routing error or stretch-bound violation, so CI runs double
// as a correctness check.
func (s *server) runLoadgen(out io.Writer, queries, batch int, seed int64) error {
	scheme := s.eng.Scheme()
	g := scheme.Graph()
	if batch < 1 {
		batch = 1
	}
	pairs := compactroute.SamplePairs(g.N(), queries, seed)
	if len(pairs) == 0 {
		return fmt.Errorf("graph too small to sample pairs")
	}
	buf := make([]compactroute.LiveResult, min(batch, len(pairs)))
	s.eng.ResetStats()
	start := time.Now()
	for lo := 0; lo < len(pairs); lo += batch {
		hi := min(lo+batch, len(pairs))
		for _, res := range s.eng.Query(pairs[lo:hi], buf) {
			if res.Err != nil {
				return fmt.Errorf("loadgen: %w", res.Err)
			}
		}
	}
	elapsed := time.Since(start)
	st := s.eng.Stats()
	var tableWords int64
	for v := 0; v < g.N(); v++ {
		tableWords += int64(scheme.TableWords(compactroute.Vertex(v)))
	}
	sum := loadgenSummary{
		Scheme: scheme.Name(), Kind: compactroute.SnapshotKind(scheme),
		N: g.N(), M: g.M(), Workers: s.eng.Workers(), Verify: s.verify,
		Queries: st.Queries, Errors: st.Errors,
		ElapsedSec: elapsed.Seconds(), QPS: float64(st.Queries) / elapsed.Seconds(),
		MeanHops: st.MeanHops, P50Hops: st.P50Hops, P99Hops: st.P99Hops,
		MaxStretch: st.MaxStretch, Violations: st.BoundViolations,
		SnapshotBytes: s.snapSize, TableWords: tableWords,
	}
	if st.BoundViolations != 0 {
		return fmt.Errorf("loadgen: %d stretch-bound violations over %d queries", st.BoundViolations, st.Queries)
	}
	if s.audit != nil {
		// Drain the audit backlog so the census below is exact, then hold the
		// run to the same standard as synchronous verify: zero violations.
		s.audit.Flush()
		ast := s.audit.Stats()
		sum.Audit = &auditStatsReply{
			Sampled: ast.Sampled, Verified: ast.Verified, Violations: ast.Violations,
			Stale: ast.Stale, Dropped: ast.Dropped, Backlog: ast.Backlog,
			MinHeadroom: ast.MinHeadroom, Drift: ast.Drift,
		}
		if ast.Violations != 0 {
			return fmt.Errorf("loadgen: %d audited bound violations over %d sampled queries", ast.Violations, ast.Sampled)
		}
	}
	if s.jsonMode {
		return json.NewEncoder(out).Encode(sum)
	}
	fmt.Fprintf(out, "# loadgen %s on G(n=%d, m=%d): %d workers, verify=%v\n",
		sum.Scheme, sum.N, sum.M, sum.Workers, sum.Verify)
	fmt.Fprintf(out, "queries=%d elapsed=%.3fs qps=%.0f\n", sum.Queries, sum.ElapsedSec, sum.QPS)
	fmt.Fprintf(out, "hops p50=%d p99=%d mean=%.2f\n", sum.P50Hops, sum.P99Hops, sum.MeanHops)
	fmt.Fprintf(out, "stretch max=%.3f violations=%d\n", sum.MaxStretch, sum.Violations)
	if a := sum.Audit; a != nil {
		fmt.Fprintf(out, "audit sampled=%d verified=%d violations=%d stale=%d dropped=%d headroom=%.3f drift=%.3f\n",
			a.Sampled, a.Verified, a.Violations, a.Stale, a.Dropped, a.MinHeadroom, a.Drift)
	}
	fmt.Fprintf(out, "snapshot bytes=%d table words=%d\n", sum.SnapshotBytes, sum.TableWords)
	return nil
}
