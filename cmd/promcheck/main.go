// Command promcheck scrapes a Prometheus text-exposition endpoint and fails
// unless the payload parses cleanly and every required metric is present.
//
// Usage:
//
//	promcheck -url http://127.0.0.1:9090/metrics \
//	          [-require compactroute_queries_total,compactroute_qps] \
//	          [-retries 20] [-interval 250ms] [-min name=value]...
//	          [-max name=value]...
//
// It exists so the bench-smoke CI job can assert that a routeserve session
// serving verified routes actually exposes the serving metrics (E18)
// without pulling in a Prometheus client library: the format checked here
// is the plain text exposition 0.0.4 the registry writes, and the checker
// is stdlib only.
//
// Beyond line-level syntax, every histogram series is validated as a series:
// its _bucket samples must carry parseable le labels, be cumulative
// (monotone non-decreasing in increasing le order, no duplicate bounds), end
// in an le="+Inf" bucket, and that +Inf bucket must equal the family's
// _count sample. A payload that fails series validation never fixes itself,
// so it fails immediately like any other malformed exposition.
//
// Exit status is 0 iff a scrape succeeds within the retry budget, every
// line of the payload is a well-formed comment or sample, every histogram
// series validates, every -require metric name appears at least once, and
// every -min / -max constraint holds. -max mirrors -min (value must be <=
// the threshold) and is retried within the same budget - the bench-smoke
// job uses it to pin violation counters to zero and cap the audit backlog.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "promcheck:", err)
		os.Exit(1)
	}
}

type minConstraint struct {
	name string
	min  float64
}

type minFlags []minConstraint

func (m *minFlags) String() string { return fmt.Sprint(*m) }

func (m *minFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("-min wants name=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("-min %s: %v", s, err)
	}
	*m = append(*m, minConstraint{name, f})
	return nil
}

type maxConstraint struct {
	name string
	max  float64
}

type maxFlags []maxConstraint

func (m *maxFlags) String() string { return fmt.Sprint(*m) }

func (m *maxFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("-max wants name=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("-max %s: %v", s, err)
	}
	*m = append(*m, maxConstraint{name, f})
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("promcheck", flag.ContinueOnError)
	fs.SetOutput(out)
	url := fs.String("url", "", "metrics endpoint to scrape (required)")
	require := fs.String("require", "", "comma-separated metric names that must be present")
	retries := fs.Int("retries", 20, "scrape attempts before giving up")
	interval := fs.Duration("interval", 250*time.Millisecond, "delay between scrape attempts")
	var mins minFlags
	fs.Var(&mins, "min", "name=value: metric must be present with value >= value (repeatable)")
	var maxs maxFlags
	fs.Var(&maxs, "max", "name=value: metric must be present with value <= value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}

	// The whole contract retries, not just the transport: CI starts the
	// server and promcheck concurrently, and a scrape can succeed before the
	// load it is waiting on has finished - the -min constraints become true
	// once the run completes, so treat "present but not yet big enough" as
	// "not ready" within the retry budget. A malformed exposition, by
	// contrast, never fixes itself and fails immediately.
	var err error
	for attempt := 0; attempt < *retries; attempt++ {
		if attempt > 0 {
			time.Sleep(*interval)
		}
		var body string
		if body, err = scrape(*url); err != nil {
			err = fmt.Errorf("scrape %s: %v", *url, err)
			continue
		}
		var values map[string]float64
		var lines int
		if values, lines, err = parseExposition(body); err != nil {
			return err
		}
		if err = check(values, splitNonEmpty(*require), mins, maxs); err != nil {
			continue
		}
		fmt.Fprintf(out, "promcheck ok: %d lines, %d metrics\n", lines, len(values))
		return nil
	}
	return err
}

func check(values map[string]float64, required []string, mins []minConstraint, maxs []maxConstraint) error {
	for _, name := range required {
		if _, ok := values[name]; !ok {
			return fmt.Errorf("required metric %s missing from exposition", name)
		}
	}
	for _, c := range mins {
		v, ok := values[c.name]
		if !ok {
			return fmt.Errorf("-min metric %s missing from exposition", c.name)
		}
		if v < c.min {
			return fmt.Errorf("metric %s = %v, want >= %v", c.name, v, c.min)
		}
	}
	for _, c := range maxs {
		v, ok := values[c.name]
		if !ok {
			return fmt.Errorf("-max metric %s missing from exposition", c.name)
		}
		if v > c.max {
			return fmt.Errorf("metric %s = %v, want <= %v", c.name, v, c.max)
		}
	}
	return nil
}

func scrape(url string) (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return "", fmt.Errorf("content type %q, want text/plain", ct)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// parseExposition validates text-format 0.0.4 line by line and returns the
// value of each sample keyed by bare metric name (labels stripped; for
// multi-sample families such as histograms the last sample wins, which is
// the +Inf bucket / highest label and is fine for presence and >= checks).
// Histogram bucket series are additionally validated as series - cumulative,
// no duplicate bounds, +Inf bucket present and equal to _count.
func parseExposition(body string) (map[string]float64, int, error) {
	values := make(map[string]float64)
	hists := make(map[string][]histBucket)
	lines := 0
	for n, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		lines++
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line); err != nil {
				return nil, 0, fmt.Errorf("line %d: %v (%q)", n+1, err, line)
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: %v (%q)", n+1, err, line)
		}
		values[name] = value
		if fam, ok := strings.CutSuffix(name, "_bucket"); ok {
			le, err := parseLe(labels)
			if err != nil {
				return nil, 0, fmt.Errorf("line %d: %v (%q)", n+1, err, line)
			}
			hists[fam] = append(hists[fam], histBucket{le: le, cum: value})
		}
	}
	if lines == 0 {
		return nil, 0, fmt.Errorf("empty exposition")
	}
	if err := validateHistograms(values, hists); err != nil {
		return nil, 0, err
	}
	return values, lines, nil
}

// histBucket is one histogram bucket sample: its le bound and cumulative
// count.
type histBucket struct {
	le, cum float64
}

// parseLe extracts and parses the le label of a _bucket sample.
func parseLe(labels string) (float64, error) {
	rest := labels
	for rest != "" {
		i := strings.Index(rest, `le="`)
		if i < 0 {
			break
		}
		// Require a label-set boundary before "le" so a label named e.g.
		// "scale" never matches.
		if i > 0 {
			switch rest[i-1] {
			case ',', ' ':
			default:
				rest = rest[i+4:]
				continue
			}
		}
		val := rest[i+4:]
		j := strings.IndexByte(val, '"')
		if j < 0 {
			return 0, fmt.Errorf("unterminated le label")
		}
		val = val[:j]
		if val == "+Inf" {
			return math.Inf(1), nil
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0, fmt.Errorf("bad le bound %q", val)
		}
		return f, nil
	}
	return 0, fmt.Errorf("_bucket sample has no le label")
}

// validateHistograms checks every _bucket series: buckets must be cumulative
// (monotone non-decreasing in increasing le order), carry no duplicate
// bounds, end in a le="+Inf" bucket, and that bucket must equal the
// family's _count sample.
func validateHistograms(values map[string]float64, hists map[string][]histBucket) error {
	for fam, bs := range hists {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].le == bs[i-1].le {
				return fmt.Errorf("histogram %s has duplicate le=%g buckets", fam, bs[i].le)
			}
			if bs[i].cum < bs[i-1].cum {
				return fmt.Errorf("histogram %s is not cumulative: le=%g count %g < le=%g count %g",
					fam, bs[i].le, bs[i].cum, bs[i-1].le, bs[i-1].cum)
			}
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", fam)
		}
		count, ok := values[fam+"_count"]
		if !ok {
			return fmt.Errorf("histogram %s has buckets but no %s_count sample", fam, fam)
		}
		if last.cum != count {
			return fmt.Errorf("histogram %s +Inf bucket %g != %s_count %g", fam, last.cum, fam, count)
		}
	}
	return nil
}

func checkComment(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return fmt.Errorf("comment is neither # HELP nor # TYPE")
	}
	if !validMetricName(fields[2]) {
		return fmt.Errorf("bad metric name %q", fields[2])
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("TYPE line wants exactly 4 fields")
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

func parseSample(line string) (name, labels string, value float64, err error) {
	// name{labels} value [timestamp]  - labels optional.
	rest := line
	name = rest
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated label set")
		}
		labels = rest[i+1 : j]
		rest = name + rest[j+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 || len(fields) > 3 {
		return "", "", 0, fmt.Errorf("sample wants name value [timestamp]")
	}
	name = fields[0]
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("bad metric name %q", name)
	}
	value, err = strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value %q", fields[1])
	}
	return name, labels, value, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
