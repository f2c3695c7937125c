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
