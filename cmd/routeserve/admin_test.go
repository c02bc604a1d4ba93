package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// adminHarness starts run() with the given extra flags over a pipe, drains
// its output into a line channel, and parses the admin and listening
// banners.
type adminHarness struct {
	done      chan error
	lines     chan string
	adminAddr string
	tcpAddr   string
}

func startAdminHarness(t *testing.T, args []string) *adminHarness {
	t.Helper()
	outR, outW := io.Pipe()
	h := &adminHarness{done: make(chan error, 1), lines: make(chan string, 256)}
	go func() {
		h.done <- run(args, strings.NewReader(""), outW)
		outW.Close()
	}()
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			h.lines <- sc.Text()
		}
		close(h.lines)
	}()
	deadline := time.After(30 * time.Second)
	for h.adminAddr == "" || h.tcpAddr == "" {
		select {
		case line, ok := <-h.lines:
			if !ok {
				t.Fatal("output closed before banners")
			}
			if s, ok := strings.CutPrefix(line, "# admin on "); ok {
				h.adminAddr = s
			}
			if s, ok := strings.CutPrefix(line, "# listening on "); ok {
				h.tcpAddr = s
			}
		case <-deadline:
			t.Fatal("no banners within 30s")
		}
	}
	return h
}

// get fetches an admin URL path and returns the body.
func (h *adminHarness) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + h.adminAddr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
	}
	return string(body)
}

// metricValue extracts one sample from a Prometheus text exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no sample %q", name)
	return 0
}

// TestAdminSurface drives the HTTP admin endpoints against a serving
// process: /metrics must agree with the stats line (both read the obs
// registry), /healthz must carry the graph fingerprint, /trace must return
// the sampled decision chains, and pprof must answer.
func TestAdminSurface(t *testing.T) {
	snap, n := writeSnapshot(t)
	h := startAdminHarness(t, []string{
		"-snapshot", snap, "-verify", "-workers", "2",
		"-listen", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-trace-sample", "1", "-trace-buf", "64",
	})

	conn, err := net.Dial("tcp", h.tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	send := func(cmd string) string {
		t.Helper()
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no reply to %q: %v", cmd, sc.Err())
		}
		return sc.Text()
	}

	for i := 0; i < 10; i++ {
		if rep := send(fmt.Sprintf("route %d %d", i, n-1-i)); !strings.HasPrefix(rep, "route ") {
			t.Fatalf("route reply %q", rep)
		}
	}

	// Consistency: the stats line and a /metrics scrape read the same
	// registry, and no queries run between them.
	statsLine := send("stats")
	want := ""
	for _, f := range strings.Fields(statsLine) {
		if s, ok := strings.CutPrefix(f, "queries="); ok {
			want = s
		}
	}
	if want == "" {
		t.Fatalf("stats line %q has no queries field", statsLine)
	}
	exposition := h.get(t, "/metrics")
	if got := metricValue(t, exposition, "compactroute_queries_total"); fmt.Sprintf("%.0f", got) != want {
		t.Fatalf("/metrics queries_total=%v, stats line says %s", got, want)
	}
	if metricValue(t, exposition, "compactroute_snapshot_bytes") <= 0 {
		t.Fatal("snapshot load gauge not populated")
	}
	if metricValue(t, exposition, "compactroute_heap_objects_bytes") <= 0 {
		t.Fatal("heap objects gauge not populated")
	}
	if metricValue(t, exposition, "compactroute_trace_sampled_total") != 10 {
		t.Fatal("all 10 routes should be trace-sampled at rate 1")
	}
	for _, wantSub := range []string{
		"compactroute_route_latency_seconds_bucket",
		"compactroute_stretch_bucket",
		"compactroute_route_decisions_total{phase=",
		"compactroute_snapshot_load_seconds",
	} {
		if !strings.Contains(exposition, wantSub) {
			t.Errorf("exposition missing %q", wantSub)
		}
	}

	var health healthReply
	if err := json.Unmarshal([]byte(h.get(t, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Vertices != n || len(health.Fingerprint) != 16 || health.Live {
		t.Fatalf("unexpected health %+v", health)
	}

	var traces []struct {
		ID    string `json:"id"`
		Hops  int    `json:"hops"`
		Steps []struct {
			Phase string `json:"phase"`
		} `json:"steps"`
	}
	if err := json.Unmarshal([]byte(h.get(t, "/trace?n=4")), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("/trace?n=4 returned %d traces", len(traces))
	}
	if len(traces[0].Steps) == 0 || traces[0].Steps[0].Phase == "" {
		t.Fatalf("trace carries no decision chain: %+v", traces[0])
	}

	var jm map[string]any
	if err := json.Unmarshal([]byte(h.get(t, "/metrics.json")), &jm); err != nil {
		t.Fatal(err)
	}
	if _, ok := jm["compactroute_queries_total"]; !ok {
		t.Fatal("/metrics.json missing queries_total")
	}
	if !strings.Contains(h.get(t, "/debug/pprof/"), "pprof") {
		t.Fatal("pprof index not served")
	}

	// The trace admin command dumps the same JSON shape over the line
	// protocol.
	if rep := send("trace 2"); !strings.HasPrefix(rep, `[{"id":"`) {
		t.Fatalf("trace command reply %q", rep)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestAdminSurfaceLive: a -live server loads its snapshot through the same
// mapped path as a static one, so the snapshot-load gauges report the
// mapping instead of reading 0.
func TestAdminSurfaceLive(t *testing.T) {
	snap, _ := writeSnapshot(t)
	h := startAdminHarness(t, []string{
		"-snapshot", snap, "-live", "-workers", "2",
		"-listen", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
	})
	exposition := h.get(t, "/metrics")
	if got := metricValue(t, exposition, "compactroute_snapshot_mapped"); got != 1 {
		t.Fatalf("compactroute_snapshot_mapped %v, want 1", got)
	}
	if metricValue(t, exposition, "compactroute_snapshot_bytes") <= 0 {
		t.Fatal("snapshot load gauge not populated")
	}
	var health healthReply
	if err := json.Unmarshal([]byte(h.get(t, "/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if !health.Live {
		t.Fatalf("unexpected health %+v", health)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestAuditSurface drives the online route auditor end to end through the
// CLI: -audit-sample must sample deterministically, shadow-verify off the
// hot path, surface its counters on /metrics and as the stats line's audit
// segment, and serve the flight-recorder ring at /debug/flightrec.
func TestAuditSurface(t *testing.T) {
	snap, n := writeSnapshot(t)
	h := startAdminHarness(t, []string{
		"-snapshot", snap, "-workers", "2",
		"-listen", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-audit-sample", "1", "-audit-workers", "2",
		"-flightrec", t.TempDir() + "/flight.json",
	})

	conn, err := net.Dial("tcp", h.tcpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	send := func(cmd string) string {
		t.Helper()
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no reply to %q: %v", cmd, sc.Err())
		}
		return sc.Text()
	}
	for i := 0; i < 10; i++ {
		if rep := send(fmt.Sprintf("route %d %d", i, n-1-i)); !strings.HasPrefix(rep, "route ") {
			t.Fatalf("route reply %q", rep)
		}
	}

	// Sampling is synchronous (rate 1 selects every delivery); verification
	// is async, so poll the scrape until the backlog drains.
	statsLine := send("stats")
	if !strings.Contains(statsLine, " audit(sampled=10 ") {
		t.Fatalf("stats line carries no audit segment: %q", statsLine)
	}
	deadline := time.After(10 * time.Second)
	for {
		exposition := h.get(t, "/metrics")
		if metricValue(t, exposition, "compactroute_audit_violations_total") != 0 {
			t.Fatalf("audited violations on an honest scheme:\n%s", exposition)
		}
		if metricValue(t, exposition, "compactroute_audit_verified_total") == 10 {
			if metricValue(t, exposition, "compactroute_audit_sampled_total") != 10 {
				t.Fatal("sampled_total diverges from the 10 routed queries")
			}
			if metricValue(t, exposition, "compactroute_audit_headroom_min") <= 0 {
				t.Fatal("headroom gauge not fed after audits completed")
			}
			metricValue(t, exposition, "compactroute_flightrec_events_total")
			break
		}
		select {
		case <-deadline:
			t.Fatalf("audits did not complete:\n%s", exposition)
		case <-time.After(50 * time.Millisecond):
		}
	}

	// No anomalies: the flight-recorder ring is served (empty) and no dump
	// file was tripped.
	if body := h.get(t, "/debug/flightrec"); !strings.HasPrefix(body, "[") {
		t.Fatalf("/debug/flightrec body %q", body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
