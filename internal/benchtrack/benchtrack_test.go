package benchtrack

import (
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const sweepJSON = `{
  "pr": 4,
  "method": "ignored metadata",
  "build_vs_load": {"n10000_save_run_sec": 433.1},
  "points": [
    {"key": "qps/thm11-5+eps/n=10000/workers=1", "metrics": {"qps": 215865, "mean_hops": 16.2}},
    {"key": "qps/exact/n=1000/workers=1", "metrics": {"qps": 5146767}},
    {"key": "qps/thm11-5+eps/n=10000/workers=1/verified", "metrics": {"qps": 9000}}
  ]
}`

const microJSON = `{
  "pr": 3,
  "points": [
    {"key": "bench/Nearest/unit/n=4096/k=64",
     "metrics": {"ns_per_op": 58235, "bytes_per_op": 12824, "allocs_per_op": 8,
                 "before_ns_per_op": 224357, "before_allocs_per_op": 35, "speedup": 3.85}}
  ],
  "notes": {"bench/Nearest/unit/n=4096/k=64": "narrative metadata, not a point"}
}`

func TestParseQPSSweep(t *testing.T) {
	tr, err := Parse([]byte(sweepJSON), "BENCH_pr4.json")
	if err != nil {
		t.Fatal(err)
	}
	if tr.PR != 4 {
		t.Fatalf("PR = %d, want 4", tr.PR)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("got %d points (%v), want 3", len(tr.Points), tr.Keys())
	}
	p, ok := tr.Points[QPSKey("thm11-5+eps", 10000, 1)]
	if !ok {
		t.Fatalf("missing sweep point; keys: %v", tr.Keys())
	}
	if p.Metrics["qps"] != 215865 || p.Metrics["mean_hops"] != 16.2 {
		t.Fatalf("metrics = %v", p.Metrics)
	}
	if _, stray := p.Metrics["allocs_per_op"]; stray {
		t.Fatal("absent allocs_per_op must not appear as a metric")
	}
	if _, ok := tr.Points["qps/thm11-5+eps/n=10000/workers=1/verified"]; !ok {
		t.Fatalf("missing verified point; keys: %v", tr.Keys())
	}
}

func TestParseMicroBenchmarks(t *testing.T) {
	tr, err := Parse([]byte(microJSON), "BENCH_pr3.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 1 {
		t.Fatalf("notes metadata leaked into points: %v", tr.Keys())
	}
	p, ok := tr.Points["bench/Nearest/unit/n=4096/k=64"]
	if !ok {
		t.Fatalf("missing bench point; keys: %v", tr.Keys())
	}
	if p.Metrics["ns_per_op"] != 58235 || p.Metrics["allocs_per_op"] != 8 {
		t.Fatalf("metrics = %v, want after-state values", p.Metrics)
	}
	// The superseded before_* values and the speedup ride along but never
	// gate: only the three after-state metrics are compared.
	_, compared, err := Compare(tr, tr, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if compared != 3 {
		t.Fatalf("compared %d metrics, want 3 (before_* and speedup must not gate)", compared)
	}
}

const snapshotJSON = `{
  "pr": 7,
  "points": [
    {"key": "loadms/thm11/n=10000/decode", "metrics": {"load_ms": 912.0}},
    {"key": "loadms/thm11/n=10000/mmap", "metrics": {"load_ms": 14.0}},
    {"key": "bytes/thm11/n=10000", "metrics": {"snapshot_bytes": 28311552, "bytes_per_word": 2.31}}
  ]
}`

func TestParseSnapshotTrajectories(t *testing.T) {
	tr, err := Parse([]byte(snapshotJSON), "BENCH_pr7.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("got %d points (%v), want 3", len(tr.Points), tr.Keys())
	}
	p, ok := tr.Points[LoadKey("thm11", 10000, "mmap")]
	if !ok {
		t.Fatalf("missing mmap load point; keys: %v", tr.Keys())
	}
	if p.Metrics["load_ms"] != 14.0 {
		t.Fatalf("load_ms = %v, want 14", p.Metrics["load_ms"])
	}
	sz, ok := tr.Points[SizeKey("thm11", 10000)]
	if !ok {
		t.Fatalf("missing size point; keys: %v", tr.Keys())
	}
	if sz.Metrics["bytes_per_word"] != 2.31 || sz.Metrics["snapshot_bytes"] != 28311552 {
		t.Fatalf("size metrics = %v", sz.Metrics)
	}

	// load_ms and the size metrics gate lower-is-better: a slower load or a
	// fatter snapshot regresses, a faster/leaner one never does.
	slower := traj(t, "slower", `{"points": [
	  {"key": "loadms/thm11/n=10000/mmap", "metrics": {"load_ms": 30.0}}]}`)
	regs, _, err := Compare(tr, slower, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "load_ms" {
		t.Fatalf("regs = %v, want exactly the load_ms regression", regs)
	}
	faster := traj(t, "faster", `{"points": [
	  {"key": "loadms/thm11/n=10000/mmap", "metrics": {"load_ms": 2.0}}]}`)
	if regs, _, err := Compare(tr, faster, 0.5); err != nil || len(regs) != 0 {
		t.Fatalf("improvement flagged: regs=%v err=%v", regs, err)
	}
	fatter := traj(t, "fatter", `{"points": [
	  {"key": "bytes/thm11/n=10000", "metrics": {"snapshot_bytes": 56623104, "bytes_per_word": 2.31}}]}`)
	regs, _, err = Compare(tr, fatter, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "snapshot_bytes" {
		t.Fatalf("regs = %v, want exactly the snapshot_bytes regression", regs)
	}
}

const repairJSON = `{
  "pr": 8,
  "points": [
    {"key": "repairms/thm11/n=10000/batch=1", "metrics": {"repair_ms": 3125.0, "full_rebuild_ms": 79938.0, "escalations": 0}},
    {"key": "repairms/thm11/n=1000/batch=1", "metrics": {"repair_ms": 194.0, "full_rebuild_ms": 500.0, "escalations": 1}}
  ]
}`

func TestParseRepairSweep(t *testing.T) {
	tr, err := Parse([]byte(repairJSON), "BENCH_pr8.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 2 {
		t.Fatalf("got %d points (%v), want 2", len(tr.Points), tr.Keys())
	}
	p, ok := tr.Points[RepairKey("thm11", 10000, 1)]
	if !ok {
		t.Fatalf("missing repair point; keys: %v", tr.Keys())
	}
	if p.Metrics["repair_ms"] != 3125.0 {
		t.Fatalf("repair_ms = %v, want 3125", p.Metrics["repair_ms"])
	}

	// repair_ms gates lower-is-better; the rebuild reference and the
	// escalation count ride along as context and never gate.
	slower := traj(t, "slower", `{"points": [
	  {"key": "repairms/thm11/n=10000/batch=1", "metrics": {"repair_ms": 9000.0, "full_rebuild_ms": 999999.0, "escalations": 9}}]}`)
	regs, compared, err := Compare(tr, slower, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "repair_ms" {
		t.Fatalf("regs = %v, want exactly the repair_ms regression", regs)
	}
	if compared != 1 {
		t.Fatalf("compared %d metrics, want 1 (full_rebuild_ms must not gate)", compared)
	}
	faster := traj(t, "faster", `{"points": [
	  {"key": "repairms/thm11/n=10000/batch=1", "metrics": {"repair_ms": 100.0}}]}`)
	if regs, _, err := Compare(tr, faster, 0.5); err != nil || len(regs) != 0 {
		t.Fatalf("improvement flagged: regs=%v err=%v", regs, err)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	for name, body := range map[string]string{
		"no points":     `{"pr": 1}`,
		"empty points":  `{"pr": 1, "points": []}`,
		"junk":          `not json`,
		"empty key":     `{"points": [{"key": "", "metrics": {"qps": 1}}]}`,
		"missing key":   `{"points": [{"metrics": {"qps": 1}}]}`,
		"no metrics":    `{"points": [{"key": "qps/a/n=1/workers=1"}]}`,
		"empty metrics": `{"points": [{"key": "qps/a/n=1/workers=1", "metrics": {}}]}`,
		"duplicate key": `{"points": [
		  {"key": "qps/exact/n=10/workers=1", "metrics": {"qps": 1}},
		  {"key": "qps/exact/n=10/workers=1", "metrics": {"qps": 2}}]}`,
	} {
		if _, err := Parse([]byte(body), name+".json"); err == nil {
			t.Errorf("%s: parsed, want an error", name)
		}
	}
}

func TestWriteFileRoundTrip(t *testing.T) {
	points := []Point{
		{Key: QPSKey("thm11-5+eps", 1000, 1), Metrics: map[string]float64{
			"qps": 811142.5681211724, "ns_per_op": 1232.8289, "allocs_per_op": 0, "p99_hops": 16}},
		{Key: LoadKey("thm11", 1000, "mmap"), Metrics: map[string]float64{"load_ms": 3.926937}},
		{Key: RepairKey("thm11", 1000, 1), Metrics: map[string]float64{"repair_ms": 111.18638700000001, "escalations": 0}},
	}
	meta := map[string]any{"method": "round trip", "go": "go1.24.0", "pr": 99, "points": "ignored"}
	path := filepath.Join(t.TempDir(), "BENCH_pr15.json")
	if err := WriteFile(path, 15, meta, points); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PR != 15 {
		t.Fatalf("PR = %d, want 15 (the pr argument wins over metadata)", tr.PR)
	}
	want := map[string]Point{}
	for _, p := range points {
		want[p.Key] = p
	}
	if !reflect.DeepEqual(tr.Points, want) {
		t.Fatalf("round trip changed the points:\n got %v\nwant %v", tr.Points, want)
	}
}

// TestCheckedInBenchFiles parses every BENCH_*.json at the repository root,
// so no recorded trajectory can drift out of the one schema unnoticed.
func TestCheckedInBenchFiles(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json files found")
	}
	prNum := regexp.MustCompile(`BENCH_pr(\d+)\.json$`)
	prefixes := []string{"qps/", "loadms/", "bytes/", "repairms/", "bench/"}
	for _, f := range files {
		tr, err := ParseFile(f)
		if err != nil {
			t.Error(err)
			continue
		}
		m := prNum.FindStringSubmatch(f)
		if m == nil {
			t.Errorf("%s: name does not match BENCH_pr<N>.json", f)
			continue
		}
		if want, _ := strconv.Atoi(m[1]); tr.PR != want {
			t.Errorf("%s: pr = %d, want %d", f, tr.PR, want)
		}
		if len(tr.Points) == 0 {
			t.Errorf("%s: no points", f)
		}
		for _, key := range tr.Keys() {
			known := false
			for _, pre := range prefixes {
				known = known || strings.HasPrefix(key, pre)
			}
			if !known {
				t.Errorf("%s: key %q has no known prefix %v", f, key, prefixes)
			}
			for _, metric := range GatedMetrics() {
				if v, ok := tr.Points[key].Metrics[metric]; ok && !(v >= 0) {
					t.Errorf("%s: %s %s = %v, want >= 0", f, key, metric, v)
				}
			}
		}
	}
}

func traj(t *testing.T, file, body string) *Trajectory {
	t.Helper()
	tr, err := Parse([]byte(body), file)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCompareDirections(t *testing.T) {
	base := traj(t, "base", `{"points": [
	  {"key": "qps/a/n=100/workers=1", "metrics": {"qps": 1000, "ns_per_op": 1000, "allocs_per_op": 0}}]}`)

	// Within tolerance both ways: pass.
	ok := traj(t, "ok", `{"points": [
	  {"key": "qps/a/n=100/workers=1", "metrics": {"qps": 900, "ns_per_op": 1100, "allocs_per_op": 0}}]}`)
	regs, compared, err := Compare(base, ok, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	if compared != 3 {
		t.Fatalf("compared %d metrics, want 3", compared)
	}

	// qps down past the band, ns/op and allocs up past it: three regressions.
	bad := traj(t, "bad", `{"points": [
	  {"key": "qps/a/n=100/workers=1", "metrics": {"qps": 500, "ns_per_op": 2000, "allocs_per_op": 2}}]}`)
	regs, _, err = Compare(base, bad, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("got %d regressions (%v), want 3", len(regs), regs)
	}
	for _, r := range regs {
		if !strings.Contains(r.String(), "qps/a/n=100/workers=1") {
			t.Fatalf("regression %v lost its key", r)
		}
	}

	// Improvements are never regressions.
	better := traj(t, "better", `{"points": [
	  {"key": "qps/a/n=100/workers=1", "metrics": {"qps": 2000, "ns_per_op": 500, "allocs_per_op": 0}}]}`)
	regs, _, err = Compare(base, better, 0.15)
	if err != nil || len(regs) != 0 {
		t.Fatalf("improvement flagged: regs=%v err=%v", regs, err)
	}
}

func TestCompareZeroAllocBaselineIsStrict(t *testing.T) {
	base := traj(t, "base", `{"points": [
	  {"key": "qps/a/n=100/workers=1", "metrics": {"qps": 1000, "allocs_per_op": 0}}]}`)
	cand := traj(t, "cand", `{"points": [
	  {"key": "qps/a/n=100/workers=1", "metrics": {"qps": 1000, "allocs_per_op": 0.5}}]}`)
	regs, _, err := Compare(base, cand, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// 0 * (1+tol) = 0: any allocation on a recorded zero-alloc path regresses.
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Fatalf("regs = %v, want exactly the allocs_per_op regression", regs)
	}
}

func TestCompareRejectsNoOverlap(t *testing.T) {
	base := traj(t, "base", `{"points": [{"key": "qps/a/n=100/workers=1", "metrics": {"qps": 1}}]}`)
	cand := traj(t, "cand", `{"points": [{"key": "qps/b/n=100/workers=1", "metrics": {"qps": 1}}]}`)
	if _, _, err := Compare(base, cand, 0.15); err == nil {
		t.Fatal("disjoint trajectories must not gate successfully")
	}
	if _, _, err := Compare(base, base, -0.1); err == nil {
		t.Fatal("negative tolerance must be rejected")
	}
}
