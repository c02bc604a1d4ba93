package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

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
// one serving a deletion overlay, over a line whose route falls back.
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
		})
	}
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
	modes := []*server{}
	for _, m := range []struct{ json, verify bool }{{false, false}, {false, true}, {true, true}} {
		ms := *s
		ms.jsonMode, ms.verify = m.json, m.verify
		modes = append(modes, &ms)
	}
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
