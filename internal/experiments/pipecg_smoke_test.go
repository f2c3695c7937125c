package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestPipeCGSmoke runs the pipelined-CG experiment at smoke scale and
// checks that both solvers appear and that the pipelined rows report the
// collective split the experiment exists to show.
func TestPipeCGSmoke(t *testing.T) {
	var buf bytes.Buffer
	p := smokePreset()
	p.Iters = 60 // /10 -> 6 measured steps per configuration
	p.GPUCounts = []int{1, 2}
	if err := Run("pipecg", p, &buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Pipelined CG") {
		t.Fatalf("missing table header:\n%s", out)
	}
	if !strings.Contains(out, "pipelined") || !strings.Contains(out, "cg") {
		t.Fatalf("missing solver rows:\n%s", out)
	}
	if !strings.Contains(out, "ring latency") {
		t.Fatalf("missing overlap timing model table:\n%s", out)
	}
}
