// Command routebench regenerates the paper's evaluation as text tables: the
// Table 1 reproduction (every routing scheme of the paper plus baselines,
// with measured stretch and per-vertex table words) and the space-scaling
// experiment E2 (growth exponents of table size against n). See
// EXPERIMENTS.md for the methodology.
//
// Usage:
//
//	routebench [-n 512] [-eps 0.25] [-seed 2015] [-pairs 2000] [-workers 0]
//	           [-pathsource dense|lazy] [-mem-budget 256] [-scaling]
//	           [-cpuprofile file] [-memprofile file]
//	           [-save prefix | -load prefix] [-schemes thm11,tz-k2]
//	           [-churn [-churn-frac 0.10] [-churn-seed 1] [-trace]
//	           [-repair [-churn-batch 1] [-churn-phases 4]]]
//
// -save writes a snapshot of every snapshot-capable row (exact, tz-k2,
// tz-k3, thm10, thm11) to <prefix>-<row>.snap after construction and
// restricts the evaluation to those rows; -load replays the same evaluation
// from the snapshots without constructing anything. The two runs produce
// byte-identical output - the round-trip fidelity check behind the snapshot
// subsystem (cmd/routeserve serves the same files).
//
// -churn runs the E14 live-churn replay instead of the table: a Theorem 11
// scheme is served through the live engine while a deterministic deletion
// trace (seeded by -churn-seed, -churn-frac of the edges) degrades the
// graph, then rebuilt and hot-swapped under load. The run fails (non-zero
// exit) on any dropped query, any bound violation in a clean phase, or a
// post-swap stretch histogram that is not bit-identical to a from-scratch
// build on the churned graph - the CI soak step runs exactly this.
//
// -churn -repair switches to the E17 incremental-repair study: the deletion
// trace is applied in batches of -churn-batch and after each batch the
// scheme is repaired in place (dirty-set invalidation) instead of rebuilt.
// Each of the -churn-phases phases reports the repair latency, the latency
// of a from-scratch build on the same churned graph, the speedup, and the
// dirty-set footprint (vicinities, cluster trees, inter sequences, labels);
// the repaired scheme must be snapshot-bit-identical to the from-scratch
// build and the clean serving pass violation-free, or the run fails.
//
// -trace (with either churn mode) attaches a full-rate route-trace sink and
// prints a per-serving-phase routing-decision census: how many hop decisions
// were vicinity hits, landmark-sequence walks, tree descents or exact
// fallbacks, plus the per-phase fallback rate - the measurement behind
// experiment E18's churn census.
//
// -workers caps the worker count of both the parallel preprocessing phase
// and the batched evaluation engine (0 = all cores). -pathsource selects how
// preprocessing reads shortest paths: "dense" materializes the full O(n^2)
// matrices (fast, memory-hungry), "lazy" computes per-source rows on demand
// behind an LRU cache of -mem-budget MiB. Both produce identical tables.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole run
// (construction + evaluation), the reproducible entry point for profiling
// perf work: go tool pprof routebench cpu.out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	"compactroute"
)

type row struct {
	name     string
	paper    string // the bound the paper states for this row
	space    string // the space the paper states
	weighted bool
	build    func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error)
}

func rows() []row {
	return []row{
		{"exact", "1", "O(n)", false,
			func(g *compactroute.Graph, _ compactroute.PathSource, _ float64, _ int64) (compactroute.Scheme, error) {
				return compactroute.NewExact(g)
			}},
		{"tz-k2", "3", "O~(n^1/2)", true,
			func(g *compactroute.Graph, _ compactroute.PathSource, _ float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: seed})
			}},
		{"tz-k3", "7", "O~(n^1/3)", true,
			func(g *compactroute.Graph, _ compactroute.PathSource, _ float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewThorupZwick(g, compactroute.Options{K: 3, Seed: seed})
			}},
		{"warmup", "3+eps", "O~(n^1/2 /eps)", true,
			func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewWarmup3(g, a, compactroute.Options{Eps: eps, Seed: seed})
			}},
		{"thm10", "(2+eps,1)", "O~(n^2/3 /eps)", false,
			func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewTheorem10(g, a, compactroute.Options{Eps: eps, Seed: seed})
			}},
		{"thm13-l3", "(2.33+eps,2)", "O~(n^3/5 /eps)", false,
			func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewTheorem13(g, a, compactroute.Options{Eps: eps, Seed: seed, L: 3})
			}},
		{"thm15-l2", "(4+eps,2)", "O~(n^2/5 /eps)", false,
			func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewTheorem15(g, a, compactroute.Options{Eps: eps, Seed: seed, L: 2})
			}},
		{"thm11", "5+eps", "O~(n^1/3 logD /eps)", true,
			func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewTheorem11(g, a, compactroute.Options{Eps: eps, Seed: seed})
			}},
		{"thm16-k4", "9+eps", "O~(n^1/4 logD /eps)", true,
			func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewTheorem16(g, a, compactroute.Options{Eps: eps, Seed: seed, K: 4})
			}},
		{"nameind", "7+4eps", "O~(n^1/2 /eps)", true,
			func(g *compactroute.Graph, a compactroute.PathSource, eps float64, seed int64) (compactroute.Scheme, error) {
				return compactroute.NewNameIndependent(g, a, compactroute.Options{Eps: eps, Seed: seed})
			}},
	}
}

// snapshotRowNames lists the Table 1 rows whose schemes have registered
// snapshot support (see internal/wire); -save/-load operate on these.
var snapshotRowNames = []string{"exact", "nameind", "tz-k2", "tz-k3", "thm10", "thm11", "thm13-l3", "thm15-l2", "thm16-k4", "warmup"}

func isSnapshotRow(name string) bool {
	for _, s := range snapshotRowNames {
		if s == name {
			return true
		}
	}
	return false
}

// snapshotPath names the snapshot file of one row under a -save/-load prefix.
func snapshotPath(prefix, row string) string {
	return prefix + "-" + row + ".snap"
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "routebench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("routebench", flag.ContinueOnError)
	var (
		n           = fs.Int("n", 512, "number of vertices")
		eps         = fs.Float64("eps", 0.25, "epsilon of the (1+eps) techniques")
		seed        = fs.Int64("seed", 2015, "random seed")
		pairs       = fs.Int("pairs", 2000, "sampled source-destination pairs")
		workers     = fs.Int("workers", 0, "construction and evaluation workers (0 = all cores)")
		source      = fs.String("pathsource", "dense", "shortest-path source for preprocessing: dense | lazy")
		budget      = fs.Int("mem-budget", 256, "lazy path-source row-cache budget in MiB")
		scaling     = fs.Bool("scaling", false, "also run the E2 space-scaling experiment")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		churn       = fs.Bool("churn", false, "run the E14 churn replay instead of the table: deterministic deletion trace, staleness-bounded serving, rebuild + hot-swap under load, bit-identity cross-check")
		churnFrac   = fs.Float64("churn-frac", 0.10, "churn: fraction of edges the deletion trace removes")
		churnSeed   = fs.Int64("churn-seed", 1, "churn: trace seed")
		repair      = fs.Bool("repair", false, "with -churn: incremental-repair mode (E17) - repair the scheme in place after each batch, time it against a from-scratch build, check bit-identity")
		churnBatch  = fs.Int("churn-batch", 1, "repair mode: trace ops applied per repair phase")
		churnPhases = fs.Int("churn-phases", 4, "repair mode: number of repair phases (0 = replay the whole trace)")
		churnTrace  = fs.Bool("trace", false, "churn modes: trace every query and print a per-phase routing-decision census (vicinity/tree/fallback rates)")
		save        = fs.String("save", "", "write snapshots of the snapshot-capable rows to <prefix>-<row>.snap after construction and evaluate only those rows")
		load        = fs.String("load", "", "load the snapshot-capable rows from <prefix>-<row>.snap (written by -save) instead of constructing; the evaluation output is byte-identical to the -save run")
		schemes     = fs.String("schemes", "", "comma-separated row filter (e.g. thm11,tz-k2); restricts construction and evaluation to the named rows")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *save != "" && *load != "" {
		return errors.New("-save and -load are mutually exclusive")
	}
	if *repair && !*churn {
		return errors.New("-repair requires -churn")
	}
	if *churn {
		if *save != "" || *load != "" || *scaling || *schemes != "" {
			return errors.New("-churn cannot be combined with -save/-load/-scaling/-schemes")
		}
		compactroute.SetParallelism(*workers)
		defer compactroute.SetParallelism(0)
		cfg := churnConfig{
			n: *n, eps: *eps, seed: *seed, churnSeed: *churnSeed, frac: *churnFrac,
			pairs: *pairs, workers: *workers, budgetMiB: *budget,
			repair: *repair, batch: *churnBatch, phases: *churnPhases,
			trace: *churnTrace,
		}
		if *repair {
			return runChurnRepair(out, cfg)
		}
		return runChurn(out, cfg)
	}
	snapMode := *save != "" || *load != ""
	if snapMode && *scaling {
		return errors.New("-scaling cannot be combined with -save/-load")
	}
	if *schemes != "" && *scaling {
		return errors.New("-scaling cannot be combined with -schemes (the scaling sweep has its own fixed row set)")
	}
	rowFilter := map[string]bool{}
	if *schemes != "" {
		known := map[string]bool{}
		for _, r := range rows() {
			known[r.name] = true
		}
		for _, name := range strings.Split(*schemes, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				return fmt.Errorf("-schemes: unknown row %q", name)
			}
			if snapMode && !isSnapshotRow(name) {
				return fmt.Errorf("-schemes: row %q has no snapshot support (snapshot rows: %s)",
					name, strings.Join(snapshotRowNames, ", "))
			}
			rowFilter[name] = true
		}
	}
	// The heap-profile defer is registered first so it runs last (LIFO):
	// its forced GC and pprof encoding must happen after the CPU profile
	// has stopped, or they would pollute the CPU profile's tail.
	if *memprofile != "" {
		defer func() {
			if err != nil {
				return
			}
			err = writeHeapProfile(*memprofile)
		}()
	}
	if *cpuprofile != "" {
		f, ferr := os.Create(*cpuprofile)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	compactroute.SetParallelism(*workers)
	defer compactroute.SetParallelism(0)
	evalOpts := compactroute.EvalOptions{Workers: *workers}

	fmt.Fprintf(out, "# Table 1 reproduction: G(n=%d, m=%d), eps=%v, %d sampled pairs, %d workers, %s paths\n\n",
		*n, 4**n, *eps, *pairs, compactroute.Parallelism(), *source)
	if snapMode {
		active := snapshotRowNames
		if len(rowFilter) > 0 {
			active = nil
			for _, name := range snapshotRowNames {
				if rowFilter[name] {
					active = append(active, name)
				}
			}
		}
		fmt.Fprintf(out, "# snapshot rows only: %s\n\n", strings.Join(active, ", "))
	}
	// Only the weight classes the surviving rows actually use are built: a
	// filtered run (e.g. -schemes thm11) must not pay for the other class's
	// graph and path source.
	needWeight := map[bool]bool{}
	for _, r := range rows() {
		if snapMode && !isSnapshotRow(r.name) {
			continue
		}
		if len(rowFilter) > 0 && !rowFilter[r.name] {
			continue
		}
		needWeight[r.weighted] = true
	}
	graphs := make(map[bool]*compactroute.Graph)
	apsps := make(map[bool]compactroute.PathSource)
	if *load == "" {
		for _, weighted := range []bool{false, true} {
			if !needWeight[weighted] {
				continue
			}
			g, err := compactroute.GNM(*n, 4**n, *seed, weighted, 32)
			if err != nil {
				return err
			}
			graphs[weighted] = g
			src, err := compactroute.NewPathSource(g, *source, *budget)
			if err != nil {
				return err
			}
			apsps[weighted] = src
		}
	}
	ps := compactroute.SamplePairs(*n, *pairs, *seed)
	// Loaded schemes with byte-identical graphs (same fingerprint) share one
	// true-distance source, mirroring the per-weight-class sharing of the
	// construction path.
	loadedSources := map[uint64]compactroute.PathSource{}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tgraph\tpaper stretch\tpaper space\tmax stretch\tmean stretch\tmax add\ttable max\ttable mean\tlabel\theader\tviol")
	for _, r := range rows() {
		if snapMode && !isSnapshotRow(r.name) {
			continue
		}
		if len(rowFilter) > 0 && !rowFilter[r.name] {
			continue
		}
		var s compactroute.Scheme
		var a compactroute.PathSource
		if *load != "" {
			// Serve-side half of the round trip: the scheme and its graph
			// come entirely from the snapshot written by -save; only the
			// true-distance source for evaluation is rebuilt.
			var err error
			s, err = compactroute.LoadSchemeFile(snapshotPath(*load, r.name))
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			if got := s.Graph().N(); got != *n {
				return fmt.Errorf("%s: snapshot graph has n=%d but -n is %d (pass the -n the snapshot was saved with)",
					r.name, got, *n)
			}
			fp := s.Graph().Fingerprint()
			a = loadedSources[fp]
			if a == nil {
				a, err = compactroute.NewPathSource(s.Graph(), *source, *budget)
				if err != nil {
					return err
				}
				loadedSources[fp] = a
			}
		} else {
			g := graphs[r.weighted]
			a = apsps[r.weighted]
			var err error
			s, err = r.build(g, a, *eps, *seed)
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			if *save != "" {
				if err := compactroute.SaveSchemeFile(snapshotPath(*save, r.name), s); err != nil {
					return fmt.Errorf("%s: %w", r.name, err)
				}
			}
		}
		ev, err := compactroute.EvaluateBatched(s, a, ps, evalOpts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		kind := "unweighted"
		if r.weighted {
			kind = "weighted"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.3f\t%.3f\t%.1f\t%d\t%.0f\t%d\t%d\t%d\n",
			r.name, kind, r.paper, r.space,
			ev.MaxStretch, ev.MeanStretch, ev.MaxAdditive,
			ev.Tables.Max, ev.Tables.Mean, ev.MaxLabel, ev.MaxHeader, ev.BoundViolations)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if snapMode || len(rowFilter) > 0 {
		// The selected rows are the whole comparison; the remaining sections
		// would force construction work that -load/-schemes exist to avoid.
		return nil
	}
	fmt.Fprintln(out, "\nliterature rows of Table 1 not re-implemented here (cited values):")
	fmt.Fprintln(out, "  abraham-gavoille: (2,1) stretch, O~(n^3/4) space [DISC'11]")
	fmt.Fprintln(out, "  chechik:          10.52 stretch, O~(n^1/4 logD) space [PODC'13]")

	fmt.Fprintln(out, "\nextension (Section 1 sketch): the nameind row above routes name-independently"+
		" (zero label words); see internal/nameind for the honest 7+4eps composition bound")

	if *scaling {
		if err := runScaling(out, *eps, *seed, *pairs, *source, *budget, evalOpts); err != nil {
			return err
		}
	}
	return nil
}

// writeHeapProfile snapshots the live heap (after a GC, so retained routing
// state rather than garbage dominates the profile) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runScaling(out io.Writer, eps float64, seed int64, pairs int, source string, budgetMB int, evalOpts compactroute.EvalOptions) error {
	fmt.Fprintln(out, "\n# E2: space-scaling exponents (mean table words vs n, log-log fit)")
	ns := []int{128, 256, 512, 1024}
	type fit struct {
		name     string
		expected float64
		idx      int
	}
	fits := []fit{
		{"tz-k2", 0.5, 1}, {"tz-k3", 1. / 3, 2}, {"warmup", 0.5, 3},
		{"thm10", 2. / 3, 4}, {"thm11", 1. / 3, 7}, {"thm16-k4", 0.25, 8},
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tpaper exponent\tfitted exponent\tmean words by n")
	all := rows()
	for _, f := range fits {
		r := all[f.idx]
		var xs, ys []float64
		var series string
		for _, n := range ns {
			g, err := compactroute.GNM(n, 4*n, seed, r.weighted, 32)
			if err != nil {
				return err
			}
			a, err := compactroute.NewPathSource(g, source, budgetMB)
			if err != nil {
				return err
			}
			s, err := r.build(g, a, eps, seed)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", r.name, n, err)
			}
			ev, err := compactroute.EvaluateBatched(s, a, compactroute.SamplePairs(n, pairs/2, seed), evalOpts)
			if err != nil {
				return err
			}
			xs = append(xs, float64(n))
			ys = append(ys, ev.Tables.Mean)
			series += fmt.Sprintf(" %0.f", ev.Tables.Mean)
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%s\n", r.name, f.expected, compactroute.FitExponent(xs, ys), series)
	}
	return w.Flush()
}
