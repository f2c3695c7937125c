package main

import (
	"strings"
	"testing"
)

// TestIgnoredFlag: every flag a mode would silently drop is refused by
// name, and defaults alone never trip a guard.
func TestIgnoredFlag(t *testing.T) {
	for _, tc := range []struct {
		set     []string
		devices int
		elastic bool
		ckptDir string
		want    string // substring of the message, "" for accepted
	}{
		{nil, 1, false, "", ""},
		{[]string{"batch"}, 1, false, "", ""},
		{[]string{"devices", "mbs"}, 4, false, "", ""},
		{[]string{"devices", "mbs", "elastic", "min-replicas"}, 4, true, "ckpt", ""},
		{[]string{"elastic"}, 1, true, "", "-elastic"},
		{[]string{"checkpoint-dir"}, 1, false, "ckpt", "-checkpoint-dir"},
		{[]string{"mbs"}, 1, false, "", "-mbs"},
		{[]string{"devices", "batch"}, 4, false, "", "-batch"},
		{[]string{"min-replicas"}, 1, false, "", "-min-replicas"},
		{[]string{"devices", "min-replicas"}, 4, false, "", "-min-replicas"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		got := ignoredFlag(set, tc.devices, tc.elastic, tc.ckptDir)
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("set %v devices %d elastic %v: got %q, want it to name %q", tc.set, tc.devices, tc.elastic, got, tc.want)
		}
	}
}
