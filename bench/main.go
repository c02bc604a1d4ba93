// Command bench is the wire-level benchmark of compactroute's live serving
// path: route queries sent over routeserve's TCP line protocol to a
// `routeserve -live` process, broken down layer by layer.
//
// For each workload it builds the Theorem 11 scheme in-process, writes the
// snapshot the server loads, builds ./cmd/routeserve from the same tree,
// starts it, and drives it closed-loop over at most two TCP connections.
// Every reply the output check covers is compared with an in-process
// LiveEngine serving the same state; a mismatch, an error line or a missing
// reply fails the run.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh [-workload name] [-seed s] [-seconds 30] [-trace 0|1] [-out dir]
//
// -trace 0 runs the untraced pass only and ends with a JSON line of the
// end-to-end metrics; -trace 1 (the default) adds the traced pass and the
// per-layer measurements, writes <out>/trace.json and ends with a JSON line
// of the per-layer metrics. Without -workload every workload runs in turn.
// bench/README.md maps each metric to its layer and workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// Fixed parameters of every workload. The graph, the scheme, the degraded
// overlay and the churn trace all use schemeSeed, so the server sees the
// same state on every run; -seed only picks the query pairs. A seeded
// overlay would move the fallback share between 7.5% and 13% from seed to
// seed, more than any regression bound could absorb.
const (
	schemeSeed   = 2015
	eps          = 0.25
	budgetMiB    = 256 // LazyAPSP row cache, in-process and in routeserve
	serveWorkers = 2   // routeserve -workers and the in-process engines
	pipeDepth    = 32  // requests in flight per connection in pipelined windows
	checkPairs   = 2000
	layerPairs   = 5000
	probePairs   = 64
	pairPool     = 1 << 16
)

// workload is one traffic mix; README.md records why each exists.
type workload struct {
	name    string
	n       int
	delFrac float64 // share of edges deleted in the served overlay
	churn   int     // churn-trace ops replayed over the admin connection
}

var workloads = []workload{
	{name: "clean-n5k", n: 5000},
	{name: "degraded-n5k", n: 5000, delFrac: 0.01},
	{name: "churn-n2k", n: 2000, churn: 16},
}

// config is one benchmark invocation.
type config struct {
	root   string        // repository root: the module compactroute
	work   string        // scratch directory for the server binary and snapshots
	bin    string        // routeserve binary
	seed   int64         // query-pair seed
	load   time.Duration // wire load per pass
	window time.Duration // length of one measurement window
	traced bool          // also run the traced pass and the layer measurements
	n      int           // overrides every workload's vertex count when > 0
	setups int           // server starts timed for setup_s
	log    io.Writer     // human-readable report
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all)")
		seed    = fs.Int64("seed", 1, "seed of the query pairs")
		seconds = fs.Float64("seconds", 30, "wire load per pass, in seconds")
		trace   = fs.Int("trace", 1, "0: untraced pass, end-to-end metrics; 1: add the traced pass and per-layer metrics")
		out     = fs.String("out", "", "directory for trace.json (default .bench_build/out in the repository)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0|1, -seconds > 0 and no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := config{seed: *seed, load: time.Duration(*seconds * float64(time.Second)),
		window: 500 * time.Millisecond, traced: *trace == 1, setups: 11, log: stdout}
	cleanup, err := cfg.prepareTree(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer cleanup()
	if *out == "" {
		*out = filepath.Join(cfg.root, ".bench_build", "out")
	}

	var results []*result
	for _, w := range selected {
		res, _, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		results = append(results, res)
	}
	if cfg.traced {
		if err := writeTrace(*out, cfg.seed, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", filepath.Join(*out, "trace.json"))
	}
	line, correct := summary(results, cfg.traced)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// prepareTree locates the repository, makes a scratch directory inside it
// and builds routeserve there. The returned cleanup removes the directory.
func (cfg *config) prepareTree(ctx context.Context) (func(), error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	cfg.root = root
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(work) }
	cfg.work = work
	cfg.bin = filepath.Join(work, "routeserve")
	build := exec.CommandContext(ctx, "go", "build", "-o", cfg.bin, "./cmd/routeserve")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		cleanup()
		return nil, fmt.Errorf("go build ./cmd/routeserve: %v\n%s", err, msg)
	}
	return cleanup, nil
}

// findRoot walks up from the working directory to the module compactroute.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module compactroute\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing module compactroute: run from the repository")
		}
		dir = parent
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is one workload's outcome.
type result struct {
	workload  string
	e2e       []metric
	layer     []metric
	attempted int64
	failed    int64
	checkErr  error    // first output-check failure, nil when correct
	spans     *tracer  // the traced pass's spans, nil without tracing
	checked   [][]byte // the untraced pass's replies to the checked pairs
}

// report prints the human-readable block of one workload.
func (r *result) report(w io.Writer) {
	for _, m := range r.e2e {
		fmt.Fprintf(w, "e2e    %-32s %-14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, m := range r.layer {
		fmt.Fprintf(w, "layer  %-32s %-14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(w, "check  attempted=%d failed=%d failed_frac=%g", r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	if r.checkErr != nil {
		fmt.Fprintf(w, " FAILED: %v", r.checkErr)
	}
	fmt.Fprintln(w)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the final JSON line: the end-to-end metrics without
// tracing, the per-layer metrics with it. Several workloads prefix each
// name with the workload's.
func summary(results []*result, traced bool) (string, bool) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		if r.checkErr != nil {
			out.Correct = false
		}
		list := r.e2e
		if traced {
			list = r.layer
		}
		for _, m := range list {
			key := m.name
			if len(results) > 1 {
				key = r.workload + "/" + m.name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can fail here; that is a bug in a formula.
		panic(err)
	}
	return string(b), out.Correct
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted durations, in µs.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return us(sorted[i])
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func sortDurs(ds []time.Duration) []time.Duration {
	out := slices.Clone(ds)
	slices.Sort(out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
