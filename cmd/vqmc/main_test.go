package main

import (
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
