// Package benchtrack turns the repository's BENCH_*.json artifacts into a
// comparable performance trajectory: each file is a list of keyed points (one
// per served scheme/size/worker configuration, snapshot, repair batch or
// micro-benchmark), written by WriteFile and read by Parse, and Compare
// checks a fresh run against a recorded baseline with a relative tolerance
// band per metric. cmd/benchgate wraps this into a CI gate, so a qps, ns/op
// or allocs/op regression fails the build instead of landing silently.
package benchtrack

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Point is one measured configuration: a stable key (shared across PRs) and
// its metric values.
type Point struct {
	Key     string             `json:"key"`
	Metrics map[string]float64 `json:"metrics"`
}

// Trajectory is the parsed content of one BENCH_*.json file.
type Trajectory struct {
	File   string
	PR     int
	Points map[string]Point
}

// Metric directions. A metric absent from this table is informational only
// and never gated (Compare skips it).
var higherIsBetter = map[string]bool{
	"qps":            true,
	"ns_per_op":      false,
	"bytes_per_op":   false,
	"allocs_per_op":  false,
	"load_ms":        false,
	"bytes_per_word": false,
	"snapshot_bytes": false,
	"repair_ms":      false,
}

// GatedMetrics lists the metric names Compare enforces, sorted.
func GatedMetrics() []string {
	ms := make([]string, 0, len(higherIsBetter))
	for m := range higherIsBetter {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}

// benchFile is the one BENCH_*.json schema: a PR number, a flat list of
// points, and free-form metadata (method, machine notes, narrative tables)
// that Parse ignores.
type benchFile struct {
	PR     int     `json:"pr"`
	Points []Point `json:"points"`
}

// QPSKey is the trajectory key of a serving-throughput measurement. Keys are
// the contract between PRs: a future BENCH file gates against a past one only
// where the keys match exactly.
func QPSKey(scheme string, n, workers int) string {
	return fmt.Sprintf("qps/%s/n=%d/workers=%d", scheme, n, workers)
}

// LoadKey is the trajectory key of a snapshot cold-start measurement; mode is
// "decode" (heap decode of the byte stream) or "mmap" (map + alias).
func LoadKey(scheme string, n int, mode string) string {
	return fmt.Sprintf("loadms/%s/n=%d/%s", scheme, n, mode)
}

// SizeKey is the trajectory key of a snapshot-footprint measurement.
func SizeKey(scheme string, n int) string {
	return fmt.Sprintf("bytes/%s/n=%d", scheme, n)
}

// RepairKey is the trajectory key of an incremental-repair latency
// measurement: scheme repaired in place after a churn batch of the given
// size.
func RepairKey(scheme string, n, batch int) string {
	return fmt.Sprintf("repairms/%s/n=%d/batch=%d", scheme, n, batch)
}

// Parse reads one BENCH_*.json document. Every top-level field other than
// pr and points is metadata and ignored. A point needs a key and at least
// one metric, keys must be unique, and a file without points is an error.
func Parse(data []byte, file string) (*Trajectory, error) {
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("benchtrack: %s: %w", file, err)
	}
	t := &Trajectory{File: file, PR: bf.PR, Points: make(map[string]Point, len(bf.Points))}
	for i, p := range bf.Points {
		if p.Key == "" {
			return nil, fmt.Errorf("benchtrack: %s: point %d has no key", file, i)
		}
		if len(p.Metrics) == 0 {
			return nil, fmt.Errorf("benchtrack: %s: point %q has no metrics", file, p.Key)
		}
		if _, dup := t.Points[p.Key]; dup {
			return nil, fmt.Errorf("benchtrack: %s: duplicate point %q", file, p.Key)
		}
		t.Points[p.Key] = p
	}
	if len(t.Points) == 0 {
		return nil, fmt.Errorf("benchtrack: %s: no points", file)
	}
	return t, nil
}

// WriteFile writes a BENCH file that Parse reads back unchanged: meta's
// fields plus pr and points, which take precedence over same-named meta.
func WriteFile(path string, pr int, meta map[string]any, points []Point) error {
	doc := make(map[string]any, len(meta)+2)
	for k, v := range meta {
		doc[k] = v
	}
	doc["pr"], doc["points"] = pr, points
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("benchtrack: %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ParseFile is Parse on the file at path.
func ParseFile(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data, path)
}

// Keys returns the trajectory's point keys, sorted.
func (t *Trajectory) Keys() []string {
	ks := make([]string, 0, len(t.Points))
	for k := range t.Points {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Regression is one metric of one point that moved outside the tolerance
// band in the bad direction.
type Regression struct {
	Key    string
	Metric string
	Base   float64 // baseline value
	Cand   float64 // candidate value
	Limit  float64 // worst value the tolerance allowed
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.6g -> %.6g (limit %.6g)", r.Key, r.Metric, r.Base, r.Cand, r.Limit)
}

// Compare gates cand against base: for every key present in both
// trajectories and every gated metric present in both points, a
// higher-is-better metric must not fall below base*(1-tol) and a
// lower-is-better metric must not rise above base*(1+tol). It returns the
// regressions (empty = pass) and the number of (key, metric) comparisons
// made; zero overlap is an error - a gate that compares nothing must not
// report success.
func Compare(base, cand *Trajectory, tol float64) ([]Regression, int, error) {
	if tol < 0 {
		return nil, 0, fmt.Errorf("benchtrack: negative tolerance %v", tol)
	}
	var regs []Regression
	compared := 0
	for _, key := range base.Keys() {
		bp := base.Points[key]
		cp, ok := cand.Points[key]
		if !ok {
			continue
		}
		for _, metric := range GatedMetrics() {
			bv, okB := bp.Metrics[metric]
			cv, okC := cp.Metrics[metric]
			if !okB || !okC {
				continue
			}
			compared++
			if higherIsBetter[metric] {
				limit := bv * (1 - tol)
				if cv < limit {
					regs = append(regs, Regression{Key: key, Metric: metric, Base: bv, Cand: cv, Limit: limit})
				}
			} else {
				limit := bv * (1 + tol)
				if cv > limit {
					regs = append(regs, Regression{Key: key, Metric: metric, Base: bv, Cand: cv, Limit: limit})
				}
			}
		}
	}
	if compared == 0 {
		return nil, 0, fmt.Errorf("benchtrack: no overlapping (point, metric) pairs between %s and %s - nothing was gated", base.File, cand.File)
	}
	return regs, compared, nil
}
