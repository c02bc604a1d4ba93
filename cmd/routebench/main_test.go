package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compactroute"
)

// TestRunSmallGraph drives the full main path (graph generation, every
// scheme's preprocessing, batched evaluation, table rendering) on a tiny
// graph with an explicit worker cap.
func TestRunSmallGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every scheme; skipped in short mode")
	}
	var out strings.Builder
	if err := run([]string{"-n", "96", "-pairs", "150", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"Table 1 reproduction",
		"2 workers",
		"thm11", "thm16-k4", "tz-k2", "exact",
		"nameind",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Every row must report zero stretch-bound violations (last column).
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 2 && (fields[1] == "weighted" || fields[1] == "unweighted") {
			if fields[len(fields)-1] != "0" {
				t.Errorf("row reports violations: %s", line)
			}
		}
	}
}

// TestProfileFlagsProduceFiles smokes the -cpuprofile/-memprofile plumbing:
// a small run must leave non-empty pprof files behind, so future perf PRs
// can rely on the profiling entry point without re-checking it by hand.
func TestProfileFlagsProduceFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every scheme; skipped in short mode")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var out strings.Builder
	if err := run([]string{"-n", "48", "-pairs", "60", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestSnapshotSaveLoadByteIdentical is the acceptance criterion of the
// snapshot round trip at CLI level: a -save run (construct, snapshot,
// evaluate) and a -load run (decode, evaluate) must print byte-identical
// evaluation output, for both path sources and two seeds.
func TestSnapshotSaveLoadByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and round-trips four schemes repeatedly; skipped in short mode")
	}
	for _, source := range []string{"dense", "lazy"} {
		for _, seed := range []string{"2015", "2043"} {
			t.Run(source+"/seed"+seed, func(t *testing.T) {
				prefix := filepath.Join(t.TempDir(), "snap")
				common := []string{"-n", "80", "-pairs", "150", "-seed", seed, "-pathsource", source, "-mem-budget", "1"}
				var saved, loaded strings.Builder
				if err := run(append([]string{"-save", prefix}, common...), &saved); err != nil {
					t.Fatalf("save run: %v", err)
				}
				if err := run(append([]string{"-load", prefix}, common...), &loaded); err != nil {
					t.Fatalf("load run: %v", err)
				}
				if saved.String() != loaded.String() {
					t.Errorf("save and load runs diverge:\n--- save ---\n%s\n--- load ---\n%s",
						saved.String(), loaded.String())
				}
				for _, row := range snapshotRowNames {
					if _, err := os.Stat(snapshotPath(prefix, row)); err != nil {
						t.Errorf("snapshot of %s not written: %v", row, err)
					}
				}
			})
		}
	}
}

// TestSchemesFilter pins the -schemes row filter: only the named rows are
// constructed and printed, and unknown names are rejected.
func TestSchemesFilter(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "48", "-pairs", "60", "-schemes", "exact,tz-k2"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "exact") || !strings.Contains(text, "tz-k2") {
		t.Errorf("filtered rows missing:\n%s", text)
	}
	for _, absent := range []string{"thm11", "warmup", "nameind"} {
		if strings.Contains(text, absent) {
			t.Errorf("row %q printed despite filter:\n%s", absent, text)
		}
	}
	if err := run([]string{"-schemes", "thm99"}, &out); err == nil {
		t.Fatal("unknown -schemes row accepted")
	}
}

// TestChurnReplay runs the E14 churn replay end to end on a small graph:
// its internal assertions (no dropped queries, no clean-phase violations,
// post-swap histogram bit-identical to a from-scratch build) are the test.
func TestChurnReplay(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-churn", "-n", "200", "-pairs", "300", "-churn-seed", "3"}, &out); err != nil {
		t.Fatalf("churn replay failed: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"# E14 churn replay",
		"fresh:",
		"degraded:",
		"rebuild:",
		"recovered:",
		"cross-check: post-swap histogram bit-identical",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// The rate-1 shadow auditor rides along every churn replay and prints a
	// census at each phase boundary.
	for _, want := range []string{"audit[fresh]:", "audit[degraded]:", "audit[rebuild]:", "audit[recovered]:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing audit census %q:\n%s", want, text)
		}
	}
}

// TestChurnTraceCensus pins the -trace decision census of the churn replay:
// every serving phase reports its sampled queries and per-phase decision
// counts, and the degraded phase must show a non-zero fallback share (the
// staleness the census exists to measure).
func TestChurnTraceCensus(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-churn", "-n", "200", "-pairs", "150", "-churn-seed", "3", "-trace"}, &out); err != nil {
		t.Fatalf("churn trace run failed: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"trace[fresh]: queries=150 decisions=",
		"trace[degraded]: queries=",
		"trace[rebuild]:",
		"trace[recovered]:",
		"fallback-rate=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// The fresh phase serves on an intact scheme: its census must not record
	// fallbacks. The degraded phase serves over dead edges: its census must.
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "trace[fresh]:"):
			if strings.Contains(line, " fallback=") {
				t.Errorf("fresh census records degraded decisions: %s", line)
			}
		case strings.HasPrefix(line, "trace[degraded]:"):
			if !strings.Contains(line, " fallback=") {
				t.Errorf("degraded census records no fallback: %s", line)
			}
		}
	}
}

func TestChurnFlagsExclusive(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-churn", "-save", "x"},
		{"-churn", "-load", "x"},
		{"-churn", "-scaling"},
		{"-churn", "-schemes", "thm11"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSnapshotRowNamesMatchRegistry guards snapshotRowNames against drift:
// a Table 1 row is listed exactly when its built scheme reports a
// registered snapshot kind, so a scheme gaining wire support without a
// routebench update fails here instead of being silently skipped.
func TestSnapshotRowNamesMatchRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every scheme; skipped in short mode")
	}
	const n = 48
	for _, r := range rows() {
		g, err := compactroute.GNM(n, 4*n, 2015, r.weighted, 32)
		if err != nil {
			t.Fatal(err)
		}
		s, err := r.build(g, compactroute.AllPairs(g), 0.5, 2015)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		capable := compactroute.SnapshotKind(s) != ""
		if capable != isSnapshotRow(r.name) {
			t.Errorf("row %s: SnapshotKind=%q but isSnapshotRow=%v - update snapshotRowNames",
				r.name, compactroute.SnapshotKind(s), isSnapshotRow(r.name))
		}
	}
}

// TestLoadRejectsMismatchedN is the regression test for the -load crash: a
// snapshot saved at one n replayed with a different -n must error cleanly
// (sampled pairs would otherwise index outside the loaded scheme's graph).
func TestLoadRejectsMismatchedN(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "snap")
	var out strings.Builder
	if err := run([]string{"-n", "64", "-pairs", "50", "-schemes", "exact", "-save", prefix}, &out); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-n", "96", "-pairs", "50", "-schemes", "exact", "-load", prefix}, &out)
	if err == nil || !strings.Contains(err.Error(), "-n") {
		t.Fatalf("mismatched -n not rejected cleanly: %v", err)
	}
}

func TestSnapshotFlagsExclusive(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-save", "a", "-load", "b"}, &out); err == nil {
		t.Fatal("-save with -load accepted")
	}
	if err := run([]string{"-save", "a", "-scaling"}, &out); err == nil {
		t.Fatal("-save with -scaling accepted")
	}
	// A snapshot-mode run filtered to a row without snapshot support would
	// silently do nothing; it must be rejected up front. Every Table 1 row
	// currently has a codec (TestSnapshotRowNamesMatchRegistry pins the
	// correspondence), so exercise the guard through isSnapshotRow directly.
	if isSnapshotRow("no-such-row") {
		t.Fatal("isSnapshotRow accepted an unknown row")
	}
	for _, r := range rows() {
		if !isSnapshotRow(r.name) {
			if err := run([]string{"-save", "a", "-schemes", r.name}, &out); err == nil {
				t.Fatalf("-save with non-snapshot row %s accepted", r.name)
			}
		}
	}
	// -scaling has its own fixed row set; silently skipping it under
	// -schemes would drop the experiment the user asked for.
	if err := run([]string{"-schemes", "exact", "-scaling"}, &out); err == nil {
		t.Fatal("-schemes with -scaling accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunRejectsUnknownPathSource(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "16", "-pathsource", "telepathic"}, &out); err == nil {
		t.Fatal("expected error for unknown path source")
	}
}

// TestDeterminismDenseLazyIdenticalTables asserts the full CLI pipeline
// produces byte-identical tables whether preprocessing reads shortest paths
// from the dense matrices or from an eviction-heavy lazy cache - the
// end-to-end form of the PathSource equivalence guarantee.
func TestDeterminismDenseLazyIdenticalTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every scheme twice; skipped in short mode")
	}
	var dense, lazy strings.Builder
	if err := run([]string{"-n", "72", "-pairs", "120", "-pathsource", "dense"}, &dense); err != nil {
		t.Fatal(err)
	}
	// The smallest expressible budget; eviction-forcing equivalence is
	// covered by TestDeterminismLazyDenseEquivalence, this test pins the
	// CLI wiring end to end.
	if err := run([]string{"-n", "72", "-pairs", "120", "-pathsource", "lazy", "-mem-budget", "1"}, &lazy); err != nil {
		t.Fatal(err)
	}
	trim := func(s string) string {
		// Drop the header line, which names the selected path source.
		if i := strings.Index(s, "\n"); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if trim(dense.String()) != trim(lazy.String()) {
		t.Errorf("dense and lazy runs diverge:\n--- dense ---\n%s\n--- lazy ---\n%s", dense.String(), lazy.String())
	}
}
