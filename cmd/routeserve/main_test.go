package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"compactroute"
)

// writeSnapshot builds a small Theorem 11 scheme and saves it to a temp
// file, returning the path and the scheme's graph size.
func writeSnapshot(t *testing.T) (path string, n int) {
	t.Helper()
	n = 72
	g, err := compactroute.GNM(n, 4*n, 2015, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	s, err := compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: 2015})
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "thm11.snap")
	if err := compactroute.SaveSchemeFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path, n
}

// TestServeLineProtocol drives a full session over the stdin transport:
// route, dist, malformed input, a few thousand verified routes, stats, quit.
// The final stats line must count every served route with no routing error
// and no stretch-bound violation.
func TestServeLineProtocol(t *testing.T) {
	snap, n := writeSnapshot(t)
	cmds := []string{
		"route 3 41",
		"dist 3 41",
		"route 3",        // malformed: missing vertex
		"route 3 999999", // out of range
		"teleport 1 2",   // unknown command
	}
	const routes = 3000
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < routes; i++ {
		cmds = append(cmds, fmt.Sprintf("route %d %d", rng.Intn(n), rng.Intn(n)))
	}
	cmds = append(cmds, "stats", "quit")
	var out strings.Builder
	if err := run([]string{"-snapshot", snap, "-verify", "-workers", "2"},
		strings.NewReader(strings.Join(cmds, "\n")), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# serving thm11-5+eps",
		"route 3 41 hops=",
		"stretch=",
		"dist 3 41 ",
		"err route: want: route U V",
		"err route: vertex out of range",
		"err teleport: unknown command",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	stats := lines[len(lines)-1]
	if want := fmt.Sprintf("stats queries=%d ", routes+1); !strings.HasPrefix(stats, want) ||
		!strings.Contains(stats, " errors=0 viol=0 ") {
		t.Fatalf("final stats line %q, want prefix %q and errors=0 viol=0", stats, want)
	}
}

// TestServeJSONProtocol checks the -json transport parses back cleanly and
// a verified route reply carries a consistent stretch.
func TestServeJSONProtocol(t *testing.T) {
	snap, _ := writeSnapshot(t)
	in := strings.NewReader("route 5 60\nquit\n")
	var out strings.Builder
	if err := run([]string{"-snapshot", snap, "-verify", "-json"}, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var rep struct {
		Op      string  `json:"op"`
		Hops    int     `json:"hops"`
		Weight  float64 `json:"weight"`
		Dist    float64 `json:"dist"`
		Stretch float64 `json:"stretch"`
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		t.Fatalf("bad JSON %q: %v", last, err)
	}
	if rep.Op != "route" || rep.Hops < 1 || rep.Dist <= 0 {
		t.Fatalf("unexpected reply %+v", rep)
	}
	if got := rep.Weight / rep.Dist; rep.Stretch < 1 || got-rep.Stretch > 1e-9 || rep.Stretch-got > 1e-9 {
		t.Fatalf("stretch %v inconsistent with weight/dist %v", rep.Stretch, got)
	}
}

// TestServeLiveAdminSession drives the -live admin protocol over stdin:
// churn, degraded routing, rebuild+hot-swap, recovered stats.
func TestServeLiveAdminSession(t *testing.T) {
	snap, _ := writeSnapshot(t)
	in := strings.NewReader(strings.Join([]string{
		"route 3 41",
		"deledge 3 41",  // may or may not be an edge; either answer is fine
		"deledge 0 0",   // invalid: self loop
		"addedge 0 0 2", // invalid: self loop
		"setw 1 2 0",    // invalid: non-positive weight (or missing edge)
		"stats",
		"rebuild",
		"stats",
		"route 3 41",
		// The rebuild armed the repair state (RepairFuncFor), so the repair
		// and refresh admin commands swap generations in place from here on
		// (with an empty overlay both are deterministic no-op repairs).
		"repair",
		"refresh",
		"stats",
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := run([]string{"-snapshot", snap, "-live", "-verify", "-workers", "2"}, in, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"live) on G(",
		"err deledge:",
		"err addedge:",
		"err setw:",
		"ok rebuild gen=1",
		"gen=1",
		"rebuilds=1",
		"ok repair gen=2",
		"ok refresh gen=3",
		"repairs=2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestServeLiveDistAfterDeledge pins the dist command of a -live session to
// the churned graph: after deledge of the first edge of a shortest 3->41
// path, dist returns the distance on the graph without that edge, and a
// vertex cut off by deletions gets the JSON -1 / "unreachable" reply.
func TestServeLiveDistAfterDeledge(t *testing.T) {
	snap, n := writeSnapshot(t)
	g, err := compactroute.GNM(n, 4*n, 2015, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	first := compactroute.AllPairs(g).First(3, 41)
	b := compactroute.NewBuilder(n)
	for u := 0; u < n; u++ {
		g.Neighbors(compactroute.Vertex(u), func(_ compactroute.Port, v compactroute.Vertex, w float64) bool {
			if compactroute.Vertex(u) < v && !(u == 3 && v == first || v == 3 && compactroute.Vertex(u) == first) {
				b.AddEdge(compactroute.Vertex(u), v, w)
			}
			return true
		})
	}
	churned, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := compactroute.AllPairs(churned).Dist(3, 41)

	// Cut off a vertex away from the 3->41 pair by deleting all its edges.
	isolated := compactroute.Vertex(0)
	for isolated == 3 || isolated == 41 || isolated == first {
		isolated++
	}
	cmds := []string{fmt.Sprintf("deledge 3 %d", first), "dist 3 41"}
	g.Neighbors(isolated, func(_ compactroute.Port, v compactroute.Vertex, _ float64) bool {
		cmds = append(cmds, fmt.Sprintf("deledge %d %d", isolated, v))
		return true
	})
	cmds = append(cmds, fmt.Sprintf("dist %d 41", isolated), "quit")
	var out strings.Builder
	if err := run([]string{"-snapshot", snap, "-live", "-json", "-workers", "2"},
		strings.NewReader(strings.Join(cmds, "\n")), &out); err != nil {
		t.Fatal(err)
	}
	var dists []routeReply
	for _, line := range strings.Split(out.String(), "\n") {
		var rep routeReply
		if json.Unmarshal([]byte(line), &rep) == nil && rep.Op == "dist" {
			dists = append(dists, rep)
		}
	}
	if len(dists) != 2 {
		t.Fatalf("got %d dist replies, want 2:\n%s", len(dists), out.String())
	}
	if dists[0].Dist != want || dists[0].Err != "" {
		t.Fatalf("dist 3 41 after deledge 3 %d = %+v, want %v", first, dists[0], want)
	}
	if dists[1].Dist != -1 || dists[1].Err != "unreachable" {
		t.Fatalf("dist from isolated vertex %d = %+v, want -1 / unreachable", isolated, dists[1])
	}
}

// TestServeLiveChurnOverTCP runs a full degraded/recovered cycle over the
// TCP transport and then exercises the graceful-shutdown satellite: SIGINT
// must drain the session, flush a final stats line and return nil (exit 0).
func TestServeLiveChurnOverTCP(t *testing.T) {
	snap, _ := writeSnapshot(t)
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-snapshot", snap, "-live", "-verify", "-listen", "127.0.0.1:0"},
			strings.NewReader(""), outW)
	}()
	// Drain the server's output continuously (it writes into a pipe, so an
	// unread line would block it) and hand every line to the test.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var addr string
	for line := range lines {
		if s, ok := strings.CutPrefix(line, "# listening on "); ok {
			addr = s
			break
		}
	}
	if addr == "" {
		t.Fatal("no listening banner")
	}
	conn, err := net.Dial("tcp", addr)
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
	if rep := send("route 3 41"); !strings.HasPrefix(rep, "route 3 41 hops=") {
		t.Fatalf("route reply %q", rep)
	}
	// Delete an edge incident to vertex 3 (probe neighbors until one
	// deletion is accepted) and route again: still served.
	dst := -1
	for v := 0; v < 72 && dst < 0; v++ {
		if v == 3 {
			continue
		}
		if rep := send(fmt.Sprintf("deledge 3 %d", v)); strings.HasPrefix(rep, "ok deledge") {
			dst = v
		}
	}
	if dst < 0 {
		t.Fatal("vertex 3 has no deletable edge")
	}
	if rep := send("route 3 41"); !strings.HasPrefix(rep, "route 3 41 hops=") {
		t.Fatalf("degraded route reply %q", rep)
	}
	if rep := send("rebuild"); !strings.HasPrefix(rep, "ok rebuild gen=1") {
		t.Fatalf("rebuild reply %q", rep)
	}
	if rep := send("stats"); !strings.Contains(rep, "gen=1") {
		t.Fatalf("stats reply %q", rep)
	}
	// Graceful shutdown: SIGINT to our own process; run() must drain and
	// return nil, emitting the final stats line on its way out.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}
	outW.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("no final stats line")
			}
			if strings.HasPrefix(line, "# shutdown: stats ") {
				if !strings.Contains(line, "queries=") {
					t.Fatalf("final stats line malformed: %q", line)
				}
				return
			}
		case <-deadline:
			t.Fatal("no final stats line")
		}
	}
}

func TestRunRejectsMissingSnapshot(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Fatal("expected error without -snapshot")
	}
	if err := run([]string{"-snapshot", "/definitely/not/a/file"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("expected error for missing snapshot file")
	}
}
