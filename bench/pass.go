package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"compactroute"
)

// state is what one workload run shares between its passes: the snapshot
// routeserve serves, the query pairs, and an in-process engine serving the
// same state as the reference for the output check.
type state struct {
	w      workload
	n      int
	snap   string
	kind   string
	pairs  []pair // the pair pool; checked, layer and probe pairs are prefixes
	noop   []pair // (v, v): the scheme does no work
	ops    []compactroute.EdgeUpdate
	ref    *compactroute.LiveEngine
	want   []compactroute.LiveResult // ref's answers for pairs[:layerPairs]
	dist   []float64                 // true effective distances of the checked pairs
	counts liveCounts                // ref's detour/fallback counts over want

	build    time.Duration
	lazyRows int64
	apply    []time.Duration // ApplyUpdates calls that churned the served state
}

// liveCounts are LiveStats deltas over a fixed set of routes; they repeat
// exactly for equal seeds.
type liveCounts struct {
	queries, fallbacks, detours, deadHits uint64
}

func (c *liveCounts) add(before, after compactroute.LiveStats, queries int) {
	c.queries += uint64(queries)
	c.fallbacks += after.Fallbacks - before.Fallbacks
	c.detours += after.Detours - before.Detours
	c.deadHits += after.DeadEdgeHits - before.DeadEdgeHits
}

func (c liveCounts) per(x uint64) float64 {
	if c.queries == 0 {
		return 0
	}
	return float64(x) / float64(c.queries)
}

func (st *state) nCheck() int { return min(checkPairs, len(st.pairs)) }

// prepare builds the workload's snapshot through the public API and loads
// the in-process reference engine from it.
func prepare(cfg config, w workload, tr *tracer) (*state, error) {
	sp := tr.begin("prepare", 0)
	defer sp.end()
	st := &state{w: w, n: w.n}
	if cfg.n > 0 {
		st.n = cfg.n
	}
	g, err := compactroute.GNM(st.n, 4*st.n, schemeSeed, true, 32)
	if err != nil {
		return nil, err
	}
	lazy := compactroute.NewLazyAPSP(g, budgetMiB<<20)
	var scheme compactroute.Scheme
	st.build = tr.timed("build.thm11", sp.id, func() {
		scheme, err = compactroute.NewTheorem11(g, lazy, compactroute.Options{Eps: eps, Seed: schemeSeed})
	})
	if err != nil {
		return nil, err
	}
	st.lazyRows = lazy.Stats().Misses
	st.snap = filepath.Join(cfg.work, w.name+".snap")
	if w.delFrac > 0 {
		l, err := compactroute.ServeLive(scheme, compactroute.LiveServeOptions{Workers: serveWorkers})
		if err != nil {
			return nil, err
		}
		for _, up := range compactroute.DeletionTrace(g, w.delFrac, schemeSeed) {
			st.apply = append(st.apply, tr.timed("live.ApplyUpdates", sp.id, func() {
				err = l.ApplyUpdates([]compactroute.EdgeUpdate{up})
			}))
			if err != nil {
				return nil, err
			}
		}
		err = compactroute.SaveLiveStateFile(st.snap, l)
	} else {
		err = compactroute.SaveSchemeFile(st.snap, scheme)
	}
	if err != nil {
		return nil, err
	}
	if w.churn > 0 {
		st.ops = compactroute.ChurnTrace(g, w.churn, schemeSeed, 32)
	}
	// The build's row cache is the largest allocation of the run and is dead
	// now; hand it back before the server starts.
	debug.FreeOSMemory()

	if st.kind, err = compactroute.PeekSnapshotKind(st.snap); err != nil {
		return nil, err
	}
	if st.ref, err = compactroute.LoadLiveStateFile(st.snap, compactroute.LiveServeOptions{Workers: serveWorkers}); err != nil {
		return nil, err
	}
	st.pairs = compactroute.SamplePairs(st.n, pairPool, cfg.seed)
	st.noop = make([]pair, len(st.pairs))
	for i, p := range st.pairs {
		st.noop[i] = pair{p[0], p[0]}
	}
	before := st.ref.Stats()
	st.want = make([]compactroute.LiveResult, layerPairs)
	for i, p := range st.pairs[:layerPairs] {
		if st.want[i] = st.ref.Route(p[0], p[1]); st.want[i].Err != nil {
			return nil, fmt.Errorf("in-process route: %w", st.want[i].Err)
		}
	}
	st.counts.add(before, st.ref.Stats(), layerPairs)
	ov := st.ref.Overlay()
	st.dist = make([]float64, st.nCheck())
	for i, p := range st.pairs[:st.nCheck()] {
		st.dist[i] = ov.BoundedBidiDist(p[0], p[1], math.Inf(1))
	}
	return st, nil
}

// passStats is what one wire pass measured. Its numbers are pooled over the
// whole pass: on a noisy 2-core VM a pooled percentile repeated better
// across runs than the median of per-window ones.
type passStats struct {
	setup                 []time.Duration
	qpsReplies            int64           // replies route_qps counts: pipelined windows (churn: the reader)
	qpsTime               time.Duration   // and the time they took
	rtt                   []time.Duration // depth-1 round trips (churn: the reader's), sorted after the pass
	noop                  []time.Duration // noop round trips (traced pass)
	replies, stale, bytes int64
	attempted, failed     int64
	first                 [][]byte // each start's first reply, to pairs[0]
	checkLines            [][]byte
	admin                 adminStats
	rssMB                 float64
	stats                 string // the server's final stats line
}

func (ps *passStats) addLanes(ls []laneStats) {
	for _, s := range ls {
		ps.replies += s.replies
		ps.stale += s.stale
		ps.bytes += s.bytes
		ps.failed += s.failed
		ps.attempted += s.replies + s.failed
	}
}

func (ps *passStats) qps() float64 { return float64(ps.qpsReplies) / ps.qpsTime.Seconds() }

// wirePass starts routeserve on the workload's snapshot (setups times, the
// last start serves the load), checks the first replies, drives the load
// and shuts the server down. A non-nil tracer makes it the traced pass.
func wirePass(ctx context.Context, cfg config, st *state, tr *tracer, setups int) (*passStats, error) {
	name := "pass.untraced"
	if tr != nil {
		name = "pass.traced"
	}
	sp := tr.begin(name, 0)
	defer sp.end()
	ps := &passStats{}
	var (
		srv *server
		c0  *conn
	)
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < setups; i++ {
		var (
			first []byte
			d     time.Duration
			err   error
		)
		start := tr.begin("routeserve.start", sp.id)
		srv, c0, first, d, err = startServer(ctx, cfg.bin, st.snap, st.pairs[0])
		start.end()
		if err != nil {
			return nil, err
		}
		ps.setup = append(ps.setup, d)
		ps.first = append(ps.first, first)
		ps.attempted++
		if i < setups-1 {
			c0.close()
			_, err := srv.stop()
			srv = nil
			if err != nil {
				return nil, err
			}
		}
	}

	defer c0.c.Close()
	lines, err := c0.collect(st.pairs[:st.nCheck()], pipeDepth)
	if err != nil {
		return nil, fmt.Errorf("checked pairs: %w", err)
	}
	ps.checkLines = lines
	ps.attempted += int64(len(lines))

	c1, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c1.c.Close()
	half := len(st.pairs) / 2
	lanes := []*lane{{id: 0, c: c0, pairs: st.pairs}, {id: 1, c: c1, pairs: st.pairs, next: half}}
	if st.w.churn > 0 {
		err = ps.churnLoad(ctx, cfg, st, lanes[0], c1, tr, sp.id)
	} else {
		err = ps.windows(ctx, cfg, lanes, tr, sp.id)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := ps.noopWindows(cfg, &lane{id: 2, c: c0, pairs: st.noop}, tr, sp.id); err != nil {
			return nil, err
		}
	}
	if ps.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	c0.close()
	c1.close()
	ps.stats, err = srv.stop()
	srv = nil
	slices.Sort(ps.rtt)
	return ps, err
}

// runLanes runs one window on every lane at once.
func runLanes(lanes []*lane, deadline time.Time, depth int, tr *tracer, parent int64) ([]laneStats, error) {
	out := make([]laneStats, len(lanes))
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = l.window(deadline, depth, tr, parent)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// windows alternates pipelined windows on both connections with depth-1
// windows on one, for the pass's load. Alternating short windows makes both
// modes sample the same host conditions. Depth 1 runs a single caller: two
// callers at depth 1 put four busy threads on the two cores and their round
// trips repeated about half as well across runs.
func (ps *passStats) windows(ctx context.Context, cfg config, lanes []*lane, tr *tracer, parent int64) error {
	count := max(2, int((cfg.load+cfg.window/2)/cfg.window))
	count += count % 2
	for i := 0; i < count; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i%2 == 1 {
			sp := tr.begin("window.depth1", parent)
			ls, err := lanes[0].window(time.Now().Add(cfg.window), 1, tr, sp.id)
			sp.end()
			if err != nil {
				return err
			}
			ps.addLanes([]laneStats{ls})
			ps.rtt = append(ps.rtt, ls.rtt...)
			continue
		}
		sp := tr.begin("window.pipelined", parent)
		start := time.Now()
		ls, err := runLanes(lanes, start.Add(cfg.window), pipeDepth, tr, sp.id)
		ps.qpsTime += time.Since(start)
		sp.end()
		if err != nil {
			return err
		}
		ps.addLanes(ls)
		for _, s := range ls {
			ps.qpsReplies += s.replies
		}
	}
	return nil
}

// noopWindows times depth-1 `route v v` round trips, which cost the
// protocol and the engine's dispatch but no scheme decision.
func (ps *passStats) noopWindows(cfg config, l *lane, tr *tracer, parent int64) error {
	for i := 0; i < 2; i++ {
		sp := tr.begin("window.noop", parent)
		ls, err := l.window(time.Now().Add(cfg.window), 1, tr, sp.id)
		sp.end()
		if err != nil {
			return err
		}
		ps.addLanes([]laneStats{ls})
		ps.noop = append(ps.noop, ls.rtt...)
	}
	return nil
}

// adminStats is what the churn admin connection saw.
type adminStats struct {
	refresh           []time.Duration
	probes            [][][]byte // replies to the probe pairs after each refresh
	attempted, failed int64
}

// churnLoad replays the churn trace on the admin connection, one update and
// one refresh every load/ops, while the reader runs depth-1 windows until
// both the trace and the load are done. The reader's round trips mix
// refresh and idle periods by design; pooled over the run, the mix is the
// same on every run.
func (ps *passStats) churnLoad(ctx context.Context, cfg config, st *state, reader *lane, admin *conn, tr *tracer, parent int64) error {
	start := time.Now()
	adminDone := make(chan error, 1)
	go func() {
		var err error
		ps.admin, err = adminOps(ctx, cfg, st, admin, start, tr, parent)
		adminDone <- err
	}()
	var (
		adminErr error
		done     bool
	)
	for !done || time.Since(start) < cfg.load {
		sp := tr.begin("window.depth1", parent)
		ls, err := reader.window(time.Now().Add(cfg.window), 1, tr, sp.id)
		sp.end()
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			if !done {
				<-adminDone
			}
			return err
		}
		ps.addLanes([]laneStats{ls})
		ps.rtt = append(ps.rtt, ls.rtt...)
		if !done {
			select {
			case adminErr = <-adminDone:
				done = true
			default:
			}
		}
	}
	// Churn has no pipelined windows; route_qps is the reader's rate.
	ps.qpsReplies, ps.qpsTime = ps.replies, time.Since(start)
	ps.attempted += ps.admin.attempted
	ps.failed += ps.admin.failed
	return adminErr
}

// adminOps sends each churn update followed by refresh, then routes the
// probe pairs on the refreshed generation. An error reply is counted as a
// failure and the trace goes on.
func adminOps(ctx context.Context, cfg config, st *state, c *conn, start time.Time, tr *tracer, parent int64) (adminStats, error) {
	var as adminStats
	every := cfg.load / time.Duration(len(st.ops))
	probes := st.pairs[:probePairs]
	for i, up := range st.ops {
		select {
		case <-time.After(time.Until(start.Add(time.Duration(i) * every))):
		case <-ctx.Done():
			return as, ctx.Err()
		}
		op := up.Op.String()
		line := fmt.Sprintf("%s %d %d", op, up.U, up.V)
		if op != "deledge" {
			line += " " + strconv.FormatFloat(up.W, 'g', -1, 64)
		}
		rep, err := c.command(line)
		if err != nil {
			return as, err
		}
		as.attempted++
		if !strings.HasPrefix(rep, "ok "+op) {
			as.failed++
		}
		as.refresh = append(as.refresh, tr.timed("routeserve.refresh", parent, func() {
			rep, err = c.command("refresh")
		}))
		if err != nil {
			return as, err
		}
		as.attempted++
		if !strings.HasPrefix(rep, "ok refresh") {
			as.failed++
		}
		lines, err := c.collect(probes, pipeDepth)
		if err != nil {
			return as, err
		}
		as.attempted += int64(len(lines))
		as.probes = append(as.probes, lines)
	}
	return as, nil
}

// replayOut is the churn trace replayed in-process on the same snapshot:
// the reference answers for the probes and the repair layer's numbers.
type replayOut struct {
	refresh, apply       []time.Duration
	probes               [][]compactroute.LiveResult
	dist                 [][]float64
	bound                []func(float64) float64
	repairs, escalations uint64
	dirtyVics, dirtySeqs []float64
	counts               liveCounts // probe routes between an update and its refresh
}

func replay(st *state, tr *tracer) (*replayOut, error) {
	sp := tr.begin("replay", 0)
	defer sp.end()
	build, repair, err := compactroute.RepairFuncFor(st.kind, compactroute.Options{Eps: eps, Seed: schemeSeed}, budgetMiB)
	if err != nil {
		return nil, err
	}
	eng, err := compactroute.LoadLiveStateFile(st.snap, compactroute.LiveServeOptions{
		Workers: serveWorkers, Build: build, Repair: repair})
	if err != nil {
		return nil, err
	}
	out := &replayOut{}
	probes := st.pairs[:probePairs]
	for _, up := range st.ops {
		out.apply = append(out.apply, tr.timed("live.ApplyUpdates", sp.id, func() {
			err = eng.ApplyUpdates([]compactroute.EdgeUpdate{up})
		}))
		if err != nil {
			return nil, err
		}
		before := eng.Stats()
		for _, p := range probes {
			eng.Route(p[0], p[1])
		}
		prev := eng.Stats()
		out.counts.add(before, prev, len(probes))
		out.refresh = append(out.refresh, tr.timed("serve.Live.Refresh", sp.id, func() { err = eng.Refresh() }))
		if err != nil {
			return nil, err
		}
		after := eng.Stats()
		if after.Repairs > prev.Repairs {
			out.dirtyVics = append(out.dirtyVics, float64(after.LastRepairInfo.DirtyVics))
			out.dirtySeqs = append(out.dirtySeqs, float64(after.LastRepairInfo.DirtySeqs))
		}
		res := make([]compactroute.LiveResult, len(probes))
		dist := make([]float64, len(probes))
		ov := eng.Overlay()
		for i, p := range probes {
			if res[i] = eng.Route(p[0], p[1]); res[i].Err != nil {
				return nil, res[i].Err
			}
			dist[i] = ov.BoundedBidiDist(p[0], p[1], math.Inf(1))
		}
		out.probes = append(out.probes, res)
		out.dist = append(out.dist, dist)
		out.bound = append(out.bound, eng.Scheme().StretchBound)
	}
	final := eng.Stats()
	out.repairs, out.escalations = final.Repairs, final.Escalations
	return out, nil
}

// verify is the output check of one pass: no failed request, a clean final
// stats line, every checked reply equal to the in-process answer, and on a
// generation preprocessed for the graph it serves, every route within the
// scheme's proved stretch bound. It returns the mean stretch of the checked
// pairs.
func (st *state) verify(ps *passStats, rep *replayOut) (float64, error) {
	if ps.failed > 0 {
		return 0, fmt.Errorf("%d of %d requests failed", ps.failed, ps.attempted)
	}
	for _, key := range []string{"errors", "viol"} {
		v, err := statField(ps.stats, key)
		if err != nil {
			return 0, err
		}
		if v != 0 {
			return 0, fmt.Errorf("final stats line reports %s=%d: %s", key, v, ps.stats)
		}
	}
	for _, line := range ps.first {
		if _, err := checkRoutes([][]byte{line}, st.pairs[:1], st.want, st.dist, nil); err != nil {
			return 0, fmt.Errorf("first reply after start: %w", err)
		}
	}
	stretch, err := st.checkFirst(ps.checkLines)
	if err != nil {
		return 0, err
	}
	if len(ps.admin.probes) != len(st.ops) {
		return 0, fmt.Errorf("%d of %d churn updates were probed", len(ps.admin.probes), len(st.ops))
	}
	for i, lines := range ps.admin.probes {
		if _, err := checkRoutes(lines, st.pairs[:probePairs], rep.probes[i], rep.dist[i], rep.bound[i]); err != nil {
			return 0, fmt.Errorf("after churn update %d: %w", i, err)
		}
	}
	return stretch, nil
}

// checkFirst checks the replies to the first checkPairs pairs. On a clean
// overlay they must also meet the scheme's stretch bound; a degraded route
// may exceed it.
func (st *state) checkFirst(lines [][]byte) (float64, error) {
	var bound func(float64) float64
	if st.ref.Overlay().Empty() {
		bound = st.ref.Scheme().StretchBound
	}
	return checkRoutes(lines, st.pairs[:st.nCheck()], st.want, st.dist, bound)
}

// checkRoutes compares each reply with the in-process answer for its pair
// and, given a bound, the routed weight with the bound of the true
// distance. It returns the mean stretch.
func checkRoutes(lines [][]byte, pairs []pair, want []compactroute.LiveResult, dist []float64, bound func(float64) float64) (float64, error) {
	if len(lines) != len(pairs) {
		return 0, fmt.Errorf("%d replies for %d pairs", len(lines), len(pairs))
	}
	var sum float64
	for i, line := range lines {
		r, err := parseReply(line, pairs[i])
		if err != nil {
			return 0, err
		}
		w := want[i]
		detours := 0
		if w.Stale() {
			detours = w.Detours
		}
		if r.hops != w.Hops || r.weight != w.Weight || r.header != w.HeaderWords ||
			r.stale != w.Stale() || r.fallback != w.Fallback || r.detours != detours {
			return 0, fmt.Errorf("%q differs from the in-process route: hops=%d weight=%g header=%d stale=%v fallback=%v detours=%d",
				line, w.Hops, w.Weight, w.HeaderWords, w.Stale(), w.Fallback, detours)
		}
		if bound != nil && r.weight > bound(dist[i])+1e-9 {
			return 0, fmt.Errorf("%q exceeds the stretch bound %g of distance %g", line, bound(dist[i]), dist[i])
		}
		sum += r.weight / dist[i]
	}
	return sum / float64(len(lines)), nil
}
