package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compactroute"
	"compactroute/internal/simnet"
)

const baselineJSON = `{
  "pr": 4,
  "points": [
    {"key": "qps/thm11-5+eps/n=10000/workers=1", "metrics": {"qps": 215865}},
    {"key": "qps/exact/n=1000/workers=1", "metrics": {"qps": 5146767}}
  ]
}`

func writeTemp(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateFailsOnSyntheticRegression is the negative path the acceptance
// criteria pin: a candidate file whose qps dropped past the band must exit
// non-zero and name the regressed point.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	base := writeTemp(t, "base.json", baselineJSON)
	regressed := writeTemp(t, "cand.json", `{
	  "pr": 6,
	  "points": [
	    {"key": "qps/thm11-5+eps/n=10000/workers=1", "metrics": {"qps": 100000}},
	    {"key": "qps/exact/n=1000/workers=1", "metrics": {"qps": 5146767}}
	  ]
	}`)
	var out strings.Builder
	if code := run([]string{"-baseline", base, "-candidate", regressed, "-tolerance", "0.15"}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "qps/thm11-5+eps/n=10000/workers=1") {
		t.Fatalf("output does not name the regressed point:\n%s", out.String())
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := writeTemp(t, "base.json", baselineJSON)
	cand := writeTemp(t, "cand.json", `{
	  "pr": 6,
	  "points": [
	    {"key": "qps/thm11-5+eps/n=10000/workers=1", "metrics": {"qps": 200000, "allocs_per_op": 0}},
	    {"key": "qps/exact/n=1000/workers=1", "metrics": {"qps": 6000000}}
	  ]
	}`)
	var out strings.Builder
	if code := run([]string{"-baseline", base, "-candidate", cand, "-tolerance", "0.15"}, &out); code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
}

func TestGateErrorsOnDisjointFiles(t *testing.T) {
	base := writeTemp(t, "base.json", baselineJSON)
	cand := writeTemp(t, "cand.json", `{
	  "points": [{"key": "qps/other/n=7/workers=1", "metrics": {"qps": 1}}]
	}`)
	var out strings.Builder
	// A gate that compared nothing must fail loudly, not report success.
	if code := run([]string{"-baseline", base, "-candidate", cand}, &out); code != 2 {
		t.Fatalf("exit = %d, want 2; output:\n%s", code, out.String())
	}
}

func TestGateUsageErrors(t *testing.T) {
	var out strings.Builder
	if code := run([]string{}, &out); code != 2 {
		t.Fatalf("missing -baseline: exit = %d, want 2", code)
	}
	if code := run([]string{"-baseline", "does-not-exist.json"}, &out); code != 2 {
		t.Fatalf("unreadable baseline: exit = %d, want 2", code)
	}
}

// TestGateMeasureMode runs the real measure path end to end on a small graph
// against a synthetic baseline derived from nothing but key compatibility:
// it proves the measured records produce the same trajectory keys a recorded
// sweep uses, and that -write round-trips through the parser.
func TestGateMeasureMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scheme")
	}
	base := writeTemp(t, "base.json", `{
	  "points": [{"key": "qps/exact/n=64/workers=1", "metrics": {"qps": 1}}]
	}`)
	outFile := filepath.Join(t.TempDir(), "measured.json")
	var out strings.Builder
	code := run([]string{
		"-baseline", base, "-schemes", "exact", "-n", "64",
		"-queries", "2000", "-batch", "256", "-write", outFile,
		"-audit-sample", "1",
	}, &out)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "audit: sampled=") {
		t.Fatalf("measure mode with -audit-sample reports no audit census:\n%s", out.String())
	}
	// The written file must itself gate cleanly against the same baseline.
	out.Reset()
	if code := run([]string{"-baseline", base, "-candidate", outFile}, &out); code != 0 {
		t.Fatalf("written file does not re-gate: exit %d\n%s", code, out.String())
	}
}

// unroutable is a scheme whose every route fails at the source.
type unroutable struct{ compactroute.Scheme }

func (unroutable) Prepare(src, dst compactroute.Vertex) (simnet.Packet, error) {
	return nil, errors.New("unroutable: no route")
}

// TestServeRecordFailsOnRoutingErrors pins that a scheme which cannot route
// is a measurement error, never a throughput point.
func TestServeRecordFailsOnRoutingErrors(t *testing.T) {
	g, err := compactroute.GNM(64, 256, 2015, false, 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := compactroute.NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := serveRecord(unroutable{s}, 1000, 256, 1, 2015, 0); err == nil {
		t.Fatal("serveRecord measured a scheme that fails every route; want an error")
	}
}
