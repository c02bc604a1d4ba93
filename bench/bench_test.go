package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec reads the metric lists of the repository's BENCHMARK.json.
func readSpec(t *testing.T) (e2e, layer []specMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	slices.Sort(out)
	return out
}

// exactCounts are the metrics that count work rather than time it; two runs
// with one seed must agree on them exactly.
var exactCounts = []string{
	"live.fallback_per_query", "live.detour_per_query", "live.dead_hits_per_query",
	"repair.repairs", "repair.escalations", "repair.dirty_vics_mean", "repair.dirty_seqs_mean",
	"scheme.decisions_per_query", "scheme.hops_mean", "stretch_mean",
}

var weightField = regexp.MustCompile(`weight=(\S+)`)

func metricValue(r *result, name string) (float64, bool) {
	for _, m := range append(slices.Clone(r.e2e), r.layer...) {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// TestWorkloadsSmall runs every workload at n=300 with 200 ms windows
// through the code path of a full run, twice with one seed.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds routeserve and serves every workload")
	}
	specE2E, specLayer := readSpec(t)
	cfg := config{seed: 7, load: 800 * time.Millisecond, window: 200 * time.Millisecond,
		traced: true, n: 300, setups: 2}
	ctx := context.Background()
	cleanup, err := cfg.prepareTree(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*result
			var states [2]*state
			var out bytes.Buffer
			for i := range runs {
				out.Reset()
				c := cfg
				c.log = &out
				res, st, err := runWorkload(ctx, c, w)
				if err != nil {
					t.Fatal(err)
				}
				if res.checkErr != nil {
					t.Fatalf("output check: %v\n%s", res.checkErr, out.String())
				}
				runs[i], states[i] = res, st
			}
			res := runs[0]

			metricName := func(m metric) string { return m.name }
			specName := func(m specMetric) string { return m.Name }
			if got, want := names(res.e2e, metricName), names(specE2E, specName); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			if got, want := names(res.layer, metricName), names(specLayer, specName); !slices.Equal(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
			}
			for _, m := range append(specE2E, specLayer...) {
				line := regexp.MustCompile(`(?m)^(e2e|layer)\s+` + regexp.QuoteMeta(m.Name) +
					`\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `(\s|$)`)
				if !line.MatchString(out.String()) {
					t.Errorf("%s is not printed with unit %s", m.Name, m.Unit)
				}
			}

			if res.failed != 0 || !strings.Contains(out.String(), "failed_frac=0\n") {
				t.Errorf("failed=%d, want failed_frac=0 printed", res.failed)
			}
			for _, name := range exactCounts {
				a, okA := metricValue(runs[0], name)
				b, okB := metricValue(runs[1], name)
				if !okA || !okB || a != b {
					t.Errorf("%s: %v then %v with one seed", name, a, b)
				}
			}

			if _, err := states[0].checkFirst(res.checked); err != nil {
				t.Fatalf("recheck of the recorded replies: %v", err)
			}
			tampered := slices.Clone(res.checked)
			m := weightField.FindSubmatchIndex(tampered[0])
			weight, err := strconv.ParseFloat(string(tampered[0][m[2]:m[3]]), 64)
			if err != nil {
				t.Fatal(err)
			}
			line := append([]byte(nil), tampered[0][:m[2]]...)
			line = strconv.AppendFloat(line, weight+1, 'g', -1, 64)
			tampered[0] = append(line, tampered[0][m[3]:]...)
			if _, err := states[0].checkFirst(tampered); err == nil {
				t.Errorf("reply %q with its weight raised by one passed the output check", tampered[0])
			}
		})
	}
}
