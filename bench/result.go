package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// metric is one named measurement. Samples and Quartiles are filled for
// statistics of a distribution (step times, latencies) so a reader can
// tell a noisy run from a slow one; counts and computed values leave them
// empty.
type metric struct {
	Name      string      `json:"name"`
	Value     float64     `json:"value"`
	Unit      string      `json:"unit"`
	Samples   int         `json:"samples,omitempty"`
	Quartiles *[3]float64 `json:"quartiles,omitempty"`
}

// result is one workload's run, traced or not.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	SpanFile  string   `json:"span_file,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// add appends a plain metric.
func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

// addDist appends a statistic v of the ascending distribution asc, with its
// sample count and quartiles.
func (r *result) addDist(name string, v float64, unit string, asc []float64) {
	q := quartiles(asc)
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: len(asc), Quartiles: &q})
}

// get returns the named metric's value, NaN when absent.
func (r *result) get(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// maxFailuresKept bounds the failure messages kept per run; the count is
// always exact.
const maxFailuresKept = 8

// fail counts one failed operation or violated check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailuresKept {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted correctness check and fails it when ok is
// false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// print writes every metric by name with its unit, then the failures.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): attempted %d, failed %d\n", r.Workload, mode, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-36s %16s %-8s", m.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
		if m.Quartiles != nil {
			fmt.Fprintf(w, " n=%d q=[%.4g %.4g %.4g]", m.Samples, m.Quartiles[0], m.Quartiles[1], m.Quartiles[2])
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// driverLine is the one JSON object the benchmark contract wants as the
// last line of standard output.
func (r *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a non-finite value can fail here; report it as a failed run.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, r.Attempted, r.Failed+1)
	}
	return string(b)
}

// stamp records where and when a set of results was taken.
type stamp struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	Time       string  `json:"time"`
}

// resultSet is what `go run ./bench` writes to bench/results/<stamp>.json
// and what -compare reads.
type resultSet struct {
	Stamp   stamp    `json:"stamp"`
	Results []result `json:"results"`
}

// load1 reads the 1-minute load average; -1 where /proc is not available.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// commit names the checked-out commit, "unknown" outside a git checkout
// (the benchmark driver's checkouts are not repositories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newStamp(seed uint64, seconds float64) stamp {
	return stamp{Commit: commit(), Seed: seed, Seconds: seconds, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), LoadStart: load1()}
}
