package serve

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"compactroute/internal/graph"
	"compactroute/internal/live"
	"compactroute/internal/simnet"
	"compactroute/internal/tzroute"
)

// TestShardStatsMergeProperty is the property test guarding the per-shard
// padded-stats layout and the chunked merge of the batch workers: across
// randomized interleavings of concurrent Query batches, Stats readers,
// single-shot Routes and ResetStats calls, the merged counters after every
// quiesce point must equal a sequential oracle that routed the same pairs
// through a bare simnet.Network. Run under -race this also proves the shard
// blocks never share mutable state.
func TestShardStatsMergeProperty(t *testing.T) {
	g := testGraph(t, 64, 21)
	s, err := tzroute.New(g, tzroute.Params{K: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	paths := graph.AllPairs(g)
	eng, err := NewLive(s, LiveOptions{Workers: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Sequential oracle: the same accounting the engine does, fed from a
	// plain single-threaded Network route per pair.
	nw := simnet.NewNetwork(s)
	oracleFor := func(pairs [][2]graph.Vertex) counters {
		var c counters
		for _, p := range pairs {
			r, err := nw.Route(p[0], p[1])
			res := live.Result{Src: p[0], Dst: p[1], Hops: r.Hops, Weight: r.Weight, HeaderWords: r.HeaderWords, Err: err}
			o := outcome{clean: true, dist: -1, lat: -1}
			if err == nil {
				o.dist = paths.Dist(p[0], p[1])
			}
			c.record(&res, o, s)
		}
		return c
	}

	rng := rand.New(rand.NewSource(99))
	var expect counters // accumulated since the last ResetStats
	for iter := 0; iter < 8; iter++ {
		if rng.Intn(2) == 0 {
			eng.ResetStats()
			expect = counters{}
		}
		// Random interleaving: several Query batches and a Route burst run
		// concurrently while readers hammer Stats (their snapshots may lag
		// mid-batch; only the quiesced merge below is checked exactly).
		nb := 1 + rng.Intn(4)
		batches := make([][][2]graph.Vertex, nb)
		for i := range batches {
			batches[i] = samplePairs(g.N(), 50+rng.Intn(200), rng.Int63())
		}
		routed := samplePairs(g.N(), 1+rng.Intn(30), rng.Int63())

		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = eng.Stats()
						runtime.Gosched()
					}
				}
			}()
		}
		var work sync.WaitGroup
		for _, b := range batches {
			work.Add(1)
			go func(b [][2]graph.Vertex) {
				defer work.Done()
				eng.Query(b, nil)
			}(b)
		}
		work.Add(1)
		go func() {
			defer work.Done()
			for _, p := range routed {
				eng.Route(p[0], p[1])
			}
		}()
		work.Wait()
		close(stop)
		readers.Wait()

		for _, b := range batches {
			o := oracleFor(b)
			expect.mergeFrom(&o)
		}
		o := oracleFor(routed)
		expect.mergeFrom(&o)

		got := eng.Stats().Stats
		want := expect.finalize(eng.start.Load())
		// Wall-clock fields (elapsed, qps, sampled latency) are not part of
		// the property: the oracle routes outside the engine clock.
		got.Elapsed, got.QPS = 0, 0
		want.Elapsed, want.QPS = 0, 0
		got.LatencySamples, got.P50Latency, got.P99Latency = 0, 0, 0
		want.LatencySamples, want.P50Latency, want.P99Latency = 0, 0, 0
		if got != want {
			t.Fatalf("iteration %d: merged stats diverge from sequential oracle\n got: %+v\nwant: %+v", iter, got, want)
		}
	}
}
