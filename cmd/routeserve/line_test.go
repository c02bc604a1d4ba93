package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"compactroute"
)

// lineServer serves a small Theorem 11 snapshot through the engine
// routeserve opens (OpenLiveStateFile). When degraded, the snapshot carries
// a deletion overlay and fallback is a pair whose route falls back to the
// exact search.
func lineServer(tb testing.TB, degraded bool) (s *server, fallback [2]compactroute.Vertex) {
	tb.Helper()
	const n = 72
	g, err := compactroute.GNM(n, 4*n, 2015, true, 16)
	if err != nil {
		tb.Fatal(err)
	}
	scheme, err := compactroute.NewTheorem11(g, compactroute.AllPairs(g), compactroute.Options{Eps: 0.5, Seed: 2015})
	if err != nil {
		tb.Fatal(err)
	}
	build, err := compactroute.ServeLive(scheme, compactroute.LiveServeOptions{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if degraded {
		if err := build.ApplyUpdates(compactroute.DeletionTrace(g, 0.05, 2015)); err != nil {
			tb.Fatal(err)
		}
	}
	path := filepath.Join(tb.TempDir(), "live.snap")
	err = compactroute.SaveLiveStateFile(path, build)
	build.Close()
	if err != nil {
		tb.Fatal(err)
	}
	s = &server{reg: compactroute.NewMetricsRegistry(), sink: compactroute.NewTraceSink(0, 16)}
	s.eng, err = compactroute.OpenLiveStateFile(path, compactroute.LiveServeOptions{Workers: 2, Obs: s.reg, Trace: s.sink})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.eng.Close)
	fallback = [2]compactroute.Vertex{-1, -1}
	for u := compactroute.Vertex(0); u < n && fallback[0] < 0; u++ {
		for v := compactroute.Vertex(0); v < n; v++ {
			if s.eng.Route(u, v).Fallback {
				fallback = [2]compactroute.Vertex{u, v}
				break
			}
		}
	}
	if degraded && fallback[0] < 0 {
		tb.Fatal("no route falls back on the deletion overlay")
	}
	return s, fallback
}

// refServeLine is the line handler as it was before route lines got their
// allocation-free path: strings.Fields over the line's text, then the
// command switch of serveCommand, with the route reply formatted by fmt.
// FuzzProtocolLine holds serveLine to its bytes.
func (s *server) refServeLine(w *bufio.Writer, enc *json.Encoder, line []byte) (quit bool) {
	fields := strings.Fields(string(line))
	if len(fields) == 0 {
		return false
	}
	if fields[0] != "route" {
		return s.serveCommand(w, enc, fields)
	}
	u, v, err := parsePair(fields, s.currentScheme().Graph().N())
	if err != nil {
		s.errLine(w, enc, "route", err)
		return false
	}
	res := s.eng.Route(u, v)
	if res.Err != nil {
		s.errLine(w, enc, "route", res.Err)
		return false
	}
	rep := routeReply{Op: "route", Src: int(u), Dst: int(v), Hops: res.Hops,
		Weight: res.Weight, Header: res.HeaderWords,
		Stale: res.Stale(), Fallback: res.Fallback}
	if s.verify {
		rep.Dist = s.eng.Overlay().BoundedBidiDist(u, v, math.Inf(1))
		if rep.Dist > 0 {
			rep.Stretch = rep.Weight / rep.Dist
		}
	}
	if s.jsonMode {
		_ = enc.Encode(rep)
		return false
	}
	fmt.Fprintf(w, "route %d %d hops=%d weight=%g header=%d", u, v, rep.Hops, rep.Weight, rep.Header)
	if s.verify {
		fmt.Fprintf(w, " dist=%g", rep.Dist)
		if rep.Dist > 0 {
			fmt.Fprintf(w, " stretch=%.3f", rep.Stretch)
		}
	}
	if rep.Stale {
		fmt.Fprintf(w, " stale=1 fallback=%v", rep.Fallback)
	}
	fmt.Fprintln(w)
	return false
}

// TestRouteLineAllocs pins a warm text-mode route line - parse, route and
// reply into a reused writer - at zero allocations, on a clean engine and on
// one serving a deletion overlay, over a line whose route falls back. It
// serves the lines once with a flush after each and once back to back into
// one writer that is never flushed, as replies to pipelined lines are.
func TestRouteLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is only meaningful without -race")
	}
	for _, degraded := range []bool{false, true} {
		t.Run(fmt.Sprintf("degraded=%v", degraded), func(t *testing.T) {
			s, fb := lineServer(t, degraded)
			lines := [][]byte{[]byte("route 3 41"), []byte("route 70 0"), []byte("  route\t5  60 ")}
			if degraded {
				lines = append(lines, []byte(fmt.Sprintf("route %d %d", fb[0], fb[1])))
			}
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			enc := json.NewEncoder(w)
			for _, line := range lines {
				s.serveLine(w, enc, line)
				w.Flush()
			}
			for _, reply := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				if !strings.HasPrefix(reply, "route ") || !strings.Contains(reply, " hops=") {
					t.Fatalf("unexpected reply %q", reply)
				}
			}
			if degraded && !strings.Contains(out.String(), " fallback=true") {
				t.Fatalf("no fallback reply in\n%s", out.String())
			}
			w.Reset(io.Discard)
			i := 0
			if allocs := testing.AllocsPerRun(200, func() {
				s.serveLine(w, enc, lines[i%len(lines)])
				w.Flush()
				i++
			}); allocs != 0 {
				t.Errorf("warm route line: %v allocs/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() {
				for range 200 {
					s.serveLine(w, enc, lines[i%len(lines)])
					i++
				}
			}); allocs != 0 {
				t.Errorf("200 warm route lines back to back: %v allocs/run, want 0", allocs)
			}
		})
	}
}

// protocolModes returns copies of s in the three reply modes the protocol
// fuzzers compare: text, text with -verify, and JSON with -verify.
func protocolModes(s *server) []*server {
	var modes []*server
	for _, m := range []struct{ json, verify bool }{{false, false}, {false, true}, {true, true}} {
		ms := *s
		ms.jsonMode, ms.verify = m.json, m.verify
		modes = append(modes, &ms)
	}
	return modes
}

// FuzzProtocolLine feeds arbitrary line bytes to serveLine and to the
// pre-change reference handler over a snapshot with a deletion overlay:
// their replies must be byte-identical in text mode (with and without
// -verify) and in JSON mode, and neither may panic. stats lines are skipped:
// their qps field reads the clock.
func FuzzProtocolLine(f *testing.F) {
	s, fb := lineServer(f, true)
	for _, seed := range []string{
		"route 3 41",
		"route +5 007",
		"route\t3\t\t41",
		"  route   3    41  ",
		"route\u00a03 41",
		"route 3\u200941",
		"route 3 41 9",
		"route 72 3",
		"route 3 -1",
		"route -0 5",
		"route 99999999999999999999 3",
		"route 3",
		"",
		"   ",
		fmt.Sprintf("route %d %d", fb[0], fb[1]),
		"dist 3 41",
		"trace 2",
		"deledge 1 2",
		"teleport 1 2",
		"quit",
	} {
		f.Add([]byte(seed))
	}
	modes := protocolModes(s)
	f.Fuzz(func(t *testing.T, line []byte) {
		if fields := strings.Fields(string(line)); len(fields) > 0 && fields[0] == "stats" {
			return
		}
		for _, ms := range modes {
			var got, want bytes.Buffer
			gw, ww := bufio.NewWriter(&got), bufio.NewWriter(&want)
			gq := ms.serveLine(gw, json.NewEncoder(gw), line)
			wq := ms.refServeLine(ww, json.NewEncoder(ww), line)
			gw.Flush()
			ww.Flush()
			if gq != wq || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("json=%v verify=%v line %q:\nserveLine quit=%v %q\nreference quit=%v %q",
					ms.jsonMode, ms.verify, line, gq, got.String(), wq, want.String())
			}
		}
	})
}

// refServeSession is serveConn as it was before replies were coalesced:
// bufio.ScanLines under the same line limit, refServeLine on each line, a
// flush after every line and an end at quit. FuzzProtocolSession holds
// serveConn to its bytes.
func (s *server) refServeSession(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	w := bufio.NewWriter(out)
	defer w.Flush()
	enc := json.NewEncoder(w)
	for sc.Scan() {
		if quit := s.refServeLine(w, enc, sc.Bytes()); quit {
			return w.Flush()
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// writeCounter records what a session writes to its connection and how many
// Write calls it takes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestServeConnCoalescesReplies pins serveConn's flush rule: replies are
// written once no complete line waits in the input. Lines that arrive in one
// read get one write; lines that arrive a byte at a time get one write each,
// with the same bytes; and the replies to complete lines are written while
// a partial line waits for its end, which a client may only send after it
// has read them.
func TestServeConnCoalescesReplies(t *testing.T) {
	s, _ := lineServer(t, false)
	const lines = 32
	var stream, want bytes.Buffer
	ww := bufio.NewWriter(&want)
	enc := json.NewEncoder(ww)
	for i := range lines {
		line := fmt.Sprintf("route %d %d", (7*i)%72, (31*i+5)%72)
		stream.WriteString(line + "\n")
		s.refServeLine(ww, enc, []byte(line))
	}
	ww.Flush()

	for _, c := range []struct {
		name   string
		in     io.Reader
		writes int
	}{
		{"one read", bytes.NewReader(stream.Bytes()), 1},
		{"one byte per read", iotest.OneByteReader(bytes.NewReader(stream.Bytes())), lines},
	} {
		var out writeCounter
		if err := s.serveConn(c.in, &out); err != nil {
			t.Fatal(err)
		}
		if out.writes != c.writes {
			t.Errorf("%s: %d writes for %d lines, want %d", c.name, out.writes, lines, c.writes)
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Errorf("%s: replies\n%s\nwant\n%s", c.name, out.String(), want.String())
		}
	}

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := s.serveConn(inR, outW)
		outW.Close()
		done <- err
	}()
	replies := make(chan string, lines)
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			replies <- sc.Text()
		}
		close(replies)
	}()
	wantLines := strings.Split(want.String(), "\n")
	next := 0
	expect := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			select {
			case got := <-replies:
				if got != wantLines[next] {
					t.Fatalf("reply %d = %q, want %q", next, got, wantLines[next])
				}
				next++
			case <-time.After(5 * time.Second):
				t.Fatalf("reply %d not written within 5s", next)
			}
		}
	}
	send := func(b string) {
		t.Helper()
		if _, err := io.WriteString(inW, b); err != nil {
			t.Fatal(err)
		}
	}
	// The first two lines and the third up to its last field, then the rest.
	head := strings.SplitAfterN(stream.String(), "\n", 4)
	cut := strings.LastIndexByte(head[2], ' ')
	send(head[0] + head[1] + head[2][:cut])
	expect(2)
	send(head[2][cut:])
	expect(1)
	inW.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// FuzzProtocolSession feeds arbitrary bytes as one whole session to
// serveConn, once in a single read and once a byte per read, over a snapshot
// with a deletion overlay. Both outputs must be byte-identical to
// refServeSession's in text mode (with and without -verify) and in JSON
// mode, so coalescing moves only write boundaries: error replies stay in
// order, and lines after quit stay unanswered. Sessions that mention stats
// are skipped: its qps field reads the clock.
func FuzzProtocolSession(f *testing.F) {
	s, fb := lineServer(f, true)
	for _, seed := range []string{
		"route 3 41\nroute 3\nroute 70 0\n",
		"route 3 41\r\nroute 70 0\r\n",
		"\n\nroute 3 41\n\n  \nroute 70 0\n",
		"route 3 41\nroute 70 0",
		"route 3 41\nquit\nroute 70 0\n",
		"route 3 41\r",
		fmt.Sprintf("route %d %d\nteleport 1 2\ndist 3 41\ntrace 2\nroute 72 3\n", fb[0], fb[1]),
	} {
		f.Add([]byte(seed))
	}
	modes := protocolModes(s)
	f.Fuzz(func(t *testing.T, session []byte) {
		if bytes.Contains(session, []byte("stats")) {
			return
		}
		for _, ms := range modes {
			var want bytes.Buffer
			wantErr := ms.refServeSession(bytes.NewReader(session), &want)
			for _, in := range []io.Reader{bytes.NewReader(session), iotest.OneByteReader(bytes.NewReader(session))} {
				var got bytes.Buffer
				err := ms.serveConn(in, &got)
				if !errors.Is(err, wantErr) || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("json=%v verify=%v session %q (%T):\nserveConn err=%v %q\nreference err=%v %q",
						ms.jsonMode, ms.verify, session, in, err, got.String(), wantErr, want.String())
				}
			}
		}
	})
}
