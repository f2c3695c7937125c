package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// equal, and inside the limits the benchmark contract sets.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Fatalf("size %d or run_seconds %d out of range", len(data), bm.RunSeconds)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" || strings.Join(bm.Command, " ") != "bash bench/run.sh" {
		t.Fatalf("paths %v, command %v", bm.Paths, bm.Command)
	}
	seen := map[string]bool{}
	once := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q malformed or used twice", name)
		}
		seen[name] = true
	}
	var ws []spec
	for _, s := range workloads(false) {
		if s.gated {
			ws = append(ws, s)
		}
	}
	if len(bm.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in spec.go", len(bm.Workloads), len(ws))
	}
	for i, w := range bm.Workloads {
		once(w.Name)
		if w.Name != ws[i].name || w.Why != ws[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v != spec %q %q", i, w, ws[i].name, ws[i].why)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("metric counts: %d/%d end-to-end, %d/%d per-layer", len(bm.EndToEnd), len(endToEnd), len(bm.PerLayer), len(perLayer))
	}
	for i, m := range bm.EndToEnd {
		once(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound ||
			!unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v != table %+v", i, m, d)
		}
	}
	for i, m := range bm.PerLayer {
		once(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %d: %+v != table %+v", i, m, d)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, name := range exactCounts {
		if !seen[name] {
			t.Errorf("exact count %q is not a declared metric", name)
		}
	}
}

// smokeSet runs all six workloads at smoke scale, untraced or traced.
func smokeSet(t *testing.T, seed uint64, traced bool) map[string]*result {
	t.Helper()
	out := map[string]*result{}
	for _, s := range workloads(true) {
		res, err := runWorkload(s, runCfg{seed: seed, seconds: 0.05, traced: traced, smoke: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", s.name, res.Attempted, res.Failed, res.Failures)
		}
		out[s.name] = res
	}
	return out
}

// assertEmits checks that a run emitted exactly the declared metrics, once
// each, with the declared units and finite values.
func assertEmits(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range res.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("%s: %s emitted twice", res.Workload, m.Name)
		}
		got[m.Name] = m
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", res.Workload, m.Name, m.Value)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(got), len(defs))
	}
	for _, d := range defs {
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: %s missing or unit %q != %q", res.Workload, d.name, m.Unit, d.unit)
		}
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil || len(line.Metrics) != len(defs) || !line.Correct {
		t.Errorf("%s: driver line %s: %v", res.Workload, res.driverLine(), err)
	}
}

// TestSmoke runs every workload and its traced twin at smoke scale: every
// declared metric appears once per workload, end-to-end ones are never 0,
// the exact counts repeat for one seed, and the curve moves with the seed.
func TestSmoke(t *testing.T) {
	for name, res := range smokeSet(t, 1, false) {
		assertEmits(t, res, endToEnd)
		for _, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must be positive", name, m.Name, m.Value)
			}
		}
	}
	first, again, other := smokeSet(t, 1, true), smokeSet(t, 1, true), smokeSet(t, 2, true)
	for name, res := range first {
		assertEmits(t, res, perLayer)
		if _, err := os.Stat(res.SpanFile); err != nil {
			t.Errorf("%s: span file: %v", name, err)
		}
		for _, count := range exactCounts {
			if a, b := res.get(count), again[name].get(count); a != b {
				t.Errorf("%s: %s = %v then %v on the same seed", name, count, a, b)
			}
		}
		if a, b := res.get("core.curve_hash"), other[name].get("core.curve_hash"); a == b || a == 0 {
			t.Errorf("%s: core.curve_hash = %v on seed 1 and %v on seed 2", name, a, b)
		}
		if name == "dist_tim_sr" {
			// The CG budget is fixed, so these repeat across seeds too; they
			// must not read 0 on the one workload that communicates.
			for _, count := range []string{"comm.bytes_per_step", "optimizer.cg_iters_per_step"} {
				if res.get(count) <= 0 {
					t.Errorf("%s: %s = %v", name, count, res.get(count))
				}
			}
		}
	}
}

// TestVerdict pins the comparison rule: worse than the bound is a
// regression unless the run-to-run spread covers it; within the bound is ok
// unless the spread is wider than the bound.
func TestVerdict(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		worse, bound, sa, sb float64
		want                 string
	}{
		{0.02, 0.08, 0.01, 0.02, "ok"},
		{-0.30, 0.08, 0.01, 0.01, "ok"},
		{0.12, 0.08, 0.01, 0.02, "regressed"},
		{0.12, 0.08, nan, nan, "regressed"},
		{0.12, 0.08, 0.20, 0.01, "unresolved"},
		{0.02, 0.08, 0.01, 0.09, "unresolved"},
	} {
		if got := verdict(c.worse, c.bound, c.sa, c.sb); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %s, want %s", c.worse, c.bound, c.sa, c.sb, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestSliceRates: ten back-to-back 100 ms operations are 10 per second in
// every slice, whether or not slice edges cut through an operation.
func TestSliceRates(t *testing.T) {
	var starts, durs []float64
	for i := 0; i < 10; i++ {
		starts, durs = append(starts, float64(100*i)), append(durs, 100)
	}
	for _, slices := range []int{1, 4, 8} {
		for k, r := range sliceRates(starts, durs, time.Second, slices) {
			if math.Abs(r-10) > 1e-9 {
				t.Errorf("%d slices: slice %d rate %v, want 10", slices, k, r)
			}
		}
	}
}
