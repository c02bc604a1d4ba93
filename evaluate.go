package compactroute

import (
	"errors"
	"fmt"
	"math/rand"

	"compactroute/internal/parallel"
	"compactroute/internal/serve"
	"compactroute/internal/space"
)

// Evaluation summarizes routing quality and storage of one scheme over a set
// of source-destination pairs. It is the measurement unit behind every row
// of the Table 1 reproduction (see EXPERIMENTS.md).
type Evaluation struct {
	Scheme string
	Pairs  int
	// Stretch of routed paths over pairs at distance > 0.
	MaxStretch  float64
	MeanStretch float64
	// BoundViolations counts deliveries longer than the scheme's proved
	// StretchBound; it must be zero.
	BoundViolations int
	// MaxAdditive is max(routed - d) over unit-distance-scale graphs,
	// relevant for (alpha, beta) schemes.
	MaxAdditive float64
	MeanHops    float64
	// Tables summarizes per-vertex routing tables in words.
	Tables SpaceStats
	// MaxLabel and MaxHeader are the largest label and header observed.
	MaxLabel  int
	MaxHeader int
}

// SamplePairs draws count ordered pairs of distinct vertices uniformly at
// random, deterministically under seed. Graphs with fewer than two vertices
// have no distinct pairs, so n < 2 (or count <= 0) returns an empty slice.
func SamplePairs(n, count int, seed int64) [][2]Vertex {
	if n < 2 || count <= 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	pairs := make([][2]Vertex, 0, count)
	for len(pairs) < count {
		u := Vertex(r.Intn(n))
		v := Vertex(r.Intn(n))
		if u != v {
			pairs = append(pairs, [2]Vertex{u, v})
		}
	}
	return pairs
}

// AllPairsList enumerates every ordered pair of distinct vertices.
func AllPairsList(n int) [][2]Vertex {
	pairs := make([][2]Vertex, 0, n*(n-1))
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				pairs = append(pairs, [2]Vertex{Vertex(u), Vertex(v)})
			}
		}
	}
	return pairs
}

// EvalOptions configures the batched evaluation engine.
type EvalOptions struct {
	// Workers is the number of routing workers; <= 0 selects the current
	// parallelism default (GOMAXPROCS, or the SetParallelism override).
	Workers int
}

// Evaluate routes every pair through the scheme and aggregates stretch,
// hops, header and storage statistics. A routing failure is returned as an
// error; stretch-bound violations are counted, not fatal. It is the
// single-worker fixed point of EvaluateBatched.
func Evaluate(s Scheme, paths PathSource, pairs [][2]Vertex) (Evaluation, error) {
	return EvaluateBatched(s, paths, pairs, EvalOptions{Workers: 1})
}

// EvaluateBatched is the batched evaluation engine, built as a client of
// the serving engine (internal/serve): pairs are served as one fail-fast
// batch across opts.Workers shards - each shard owning its slots of the
// result slice - and the per-pair outcomes are merged deterministically in
// pair order, the order the sequential path uses, so the returned
// Evaluation is identical to Evaluate for every worker count. A routing
// failure aborts the evaluation with the error of the lowest failing pair
// index. The true distance of every pair is looked up in a parallel pass:
// against a LazyAPSP it may cost a shortest-path search, which must not
// serialize inside the merge loop.
func EvaluateBatched(s Scheme, paths PathSource, pairs [][2]Vertex, opts EvalOptions) (Evaluation, error) {
	ev := Evaluation{Scheme: s.Name(), Pairs: len(pairs)}
	workers := opts.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	eng, err := serve.NewLive(s, serve.LiveOptions{Workers: workers, FailFast: true})
	if err != nil {
		return ev, fmt.Errorf("evaluate %s: %w", s.Name(), err)
	}
	defer eng.Close()
	outcomes := eng.Query(pairs, nil)
	// Report the lowest-index real failure; ErrAborted marks pairs the
	// fail-fast batch skipped after that failure.
	var aborted error
	for i := range outcomes {
		if err := outcomes[i].Err; err != nil {
			if errors.Is(err, serve.ErrAborted) {
				if aborted == nil {
					aborted = err
				}
				continue
			}
			return ev, fmt.Errorf("evaluate %s: %w", s.Name(), err)
		}
	}
	if aborted != nil {
		// Unreachable unless Query aborts without a recorded cause; fail
		// rather than aggregate a partial batch.
		return ev, fmt.Errorf("evaluate %s: %w", s.Name(), aborted)
	}
	dist := make([]float64, len(pairs))
	parallel.ForN(workers, len(pairs), func(i int) {
		dist[i] = paths.Dist(pairs[i][0], pairs[i][1])
	})
	// Deterministic merge in pair order.
	var stretchSum float64
	var stretchCnt int
	var hopsSum int
	for i := range pairs {
		o, d := outcomes[i], dist[i]
		if o.Weight > s.StretchBound(d)+1e-9 {
			ev.BoundViolations++
		}
		if d > 0 {
			str := o.Weight / d
			stretchSum += str
			stretchCnt++
			if str > ev.MaxStretch {
				ev.MaxStretch = str
			}
			if add := o.Weight - d; add > ev.MaxAdditive {
				ev.MaxAdditive = add
			}
		}
		hopsSum += o.Hops
		if o.HeaderWords > ev.MaxHeader {
			ev.MaxHeader = o.HeaderWords
		}
	}
	if stretchCnt > 0 {
		ev.MeanStretch = stretchSum / float64(stretchCnt)
	}
	if len(pairs) > 0 {
		ev.MeanHops = float64(hopsSum) / float64(len(pairs))
	}
	// Storage accounting: per-vertex slots, merged in vertex order.
	g := s.Graph()
	tables := make([]int, g.N())
	labels := make([]int, g.N())
	parallel.ForN(workers, g.N(), func(v int) {
		tables[v] = s.TableWords(Vertex(v))
		labels[v] = s.LabelWords(Vertex(v))
	})
	for _, lw := range labels {
		if lw > ev.MaxLabel {
			ev.MaxLabel = lw
		}
	}
	ev.Tables = space.Summarize(tables)
	return ev, nil
}

// Row renders the evaluation as one line of the Table 1 reproduction.
func (e Evaluation) Row() string {
	return fmt.Sprintf("%-22s pairs=%-6d stretch(max=%.3f mean=%.3f viol=%d) add(max=%.1f) tables(max=%d mean=%.0f) label<=%d header<=%d",
		e.Scheme, e.Pairs, e.MaxStretch, e.MeanStretch, e.BoundViolations, e.MaxAdditive,
		e.Tables.Max, e.Tables.Mean, e.MaxLabel, e.MaxHeader)
}
