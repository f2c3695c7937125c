package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestIgnoredFlag: every flag a run would silently drop is refused by name,
// and defaults alone never trip a guard.
func TestIgnoredFlag(t *testing.T) {
	for _, tc := range []struct {
		set     []string
		elastic bool
		want    string // substring of the message, "" for accepted
	}{
		{nil, false, ""},
		{[]string{"batch"}, false, ""},
		{[]string{"devices", "batch"}, false, ""},
		{[]string{"elastic"}, true, ""},
		{[]string{"devices", "elastic", "min-replicas", "checkpoint-dir"}, true, ""},
		{[]string{"checkpoint-dir"}, false, "-checkpoint-dir"},
		{[]string{"devices", "checkpoint-dir"}, false, "-checkpoint-dir"},
		{[]string{"min-replicas"}, false, "-min-replicas"},
		{[]string{"devices", "min-replicas"}, false, "-min-replicas"},
		{[]string{"sr"}, false, ""},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		got := ignoredFlag(set, tc.elastic)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("set %v elastic %v: got %q, want it to name %q", tc.set, tc.elastic, got, tc.want)
		}
	}
}

// TestSitesBelowOne: -n 0 and -n -2 exit non-zero with one log line naming
// the flag, not a panic. The test binary re-runs itself with the vqmc
// arguments after "--", and that child runs main.
func TestSitesBelowOne(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"vqmc"}, args...)
		main()
		return
	}
	for _, n := range []string{"0", "-2"} {
		out, err := exec.Command(os.Args[0], "-test.run=^TestSitesBelowOne$", "--", "-n", n).CombinedOutput()
		if _, exited := err.(*exec.ExitError); !exited {
			t.Fatalf("-n %s: want a non-zero exit, got %v\n%s", n, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "vqmc: -n "+n+":") {
			t.Fatalf("-n %s: want one log line naming -n, got\n%s", n, out)
		}
	}
}

// TestRankPhaseRows: a two-device run prints the phase header and one row
// of six millisecond columns per rank, rank 0 then rank 1, and -exact
// prints the gap with its standard error.
func TestRankPhaseRows(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"vqmc"}, args...)
		main()
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestRankPhaseRows$", "--",
		"-n", "6", "-iters", "3", "-devices", "2", "-batch", "8", "-eval-batch", "64", "-exact").CombinedOutput()
	if err != nil {
		t.Fatalf("vqmc: %v\n%s", err, out)
	}
	var rows []string
	header, gap := false, false
	for _, line := range strings.Split(string(out), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "ms per step"):
			header = strings.Join(f[3:], " ") == "sample energy grad sync precond update"
		case strings.HasPrefix(line, "rank "):
			if len(f) != 8 {
				t.Fatalf("rank row %q: want the rank and six columns", line)
			}
			rows = append(rows, f[1])
		case strings.HasPrefix(line, "exact energy"):
			gap = strings.Contains(line, "relative gap") && strings.Contains(line, "+-")
		}
	}
	if !header || strings.Join(rows, ",") != "0,1" || !gap {
		t.Fatalf("want the phase header, rows for ranks 0 and 1, and the gap with its error; got\n%s", out)
	}
}
