package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// exactCounts are the per-layer metrics that repeat exactly for one seed on
// one program: counts and hashes, no clock in them. compare reports whether
// they moved; they move only when the arithmetic or the schedule changes.
var exactCounts = []string{
	"core.curve_hash", "optimizer.cg_iters_per_step", "dist.fisher_applies_per_step",
	"comm.bytes_per_step", "comm.msgs_per_step",
	"comm.collectives_sync_per_step", "comm.collectives_async_per_step",
	"sampler.forward_passes_per_step", "nn.ckpt_bytes", "serve.body_bytes",
}

// loadSide reads one side of a comparison: a result file, or a directory
// whose *.json files are repeated runs of the same commit.
func loadSide(path string) ([]resultSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	var sets []resultSet
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var set resultSet
		if err := json.Unmarshal(data, &set); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// values collects one metric of one workload across a side's runs.
func values(sets []resultSet, workload, name string, traced bool) []float64 {
	var out []float64
	for i := range sets {
		if v := sets[i].find(workload, traced).get(name); !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(n=4) gives
// (the benchmark driver's definition). Below four runs the quartiles are
// the extremes and say nothing about spread: it is reported as unknown.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return math.NaN()
	}
	asc := sorted(xs)
	q := func(p float64) float64 {
		pos := p*float64(len(asc)+1) - 1
		pos = math.Max(0, math.Min(pos, float64(len(asc)-1)))
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(asc)-1)
		return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
	}
	return (q(0.75) - q(0.25)) / math.Abs(q(0.5))
}

// verdict applies the benchmark's rule to one (workload, metric) row: worse
// is how much B's median is worse than A's as a share of A's.
func verdict(worse, bound, spreadA, spreadB float64) string {
	noise := math.Max(spreadA, spreadB) // NaN (single runs) compares false below
	switch {
	case worse > bound && !(noise >= worse):
		return "regressed"
	case worse > bound || noise > bound:
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, the ratio B/A, the bound and the verdict, then the exact counts,
// and returns how many rows regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed int, err error) {
	a, err := loadSide(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A: %s (%d run(s), commit %s)\nB: %s (%d run(s), commit %s)\n",
		pathA, len(a), a[0].Stamp.Commit, pathB, len(b), b[0].Stamp.Commit)
	fmt.Fprintf(w, "%-18s %-10s %12s %12s %-5s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "A", "B", "unit", "B/A", "bound", "spreadA", "spreadB", "verdict")
	for _, s := range workloads(false) {
		for _, d := range endToEnd {
			va, vb := values(a, s.name, d.name, false), values(b, s.name, d.name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / math.Abs(ma)
			if d.better == "higher" {
				worse = -worse
			}
			v := verdict(worse, d.bound, spread(va), spread(vb))
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-10s %12.5g %12.5g %-5s %9.4f %6.0f%% %8.3f %8.3f  %s\n",
				s.name, d.name, ma, mb, d.unit, mb/ma, 100*d.bound, spread(va), spread(vb), v)
		}
	}
	if a[0].Stamp.Seed != b[0].Stamp.Seed {
		fmt.Fprintln(w, "exact counts: seeds differ, not compared")
		return regressed, nil
	}
	for _, s := range workloads(false) {
		for _, name := range exactCounts {
			va, vb := values(a, s.name, name, true), values(b, s.name, name, true)
			if len(va) == 0 || len(vb) == 0 || (va[0] == 0 && vb[0] == 0) {
				continue // absent, or a layer the workload never enters
			}
			state := "exact"
			if va[0] != vb[0] {
				state = "moved"
			}
			fmt.Fprintf(w, "%-18s %-32s %20.0f %20.0f  %s\n", s.name, name, va[0], vb[0], state)
		}
	}
	return regressed, nil
}
