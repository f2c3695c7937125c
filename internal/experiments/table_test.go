package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
)

func TestTableRender(t *testing.T) {
	tb := newTable("Demo", "model", "n", "value")
	tb.AddRow("MADE", 20, 42.4)
	tb.AddRow("RBM", 500, -976.25)
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "MADE") {
		t.Fatalf("render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
	// Columns align: header "model" starts where rows' first column starts.
	if !strings.HasPrefix(lines[1], "model") || !strings.HasPrefix(lines[3], "MADE") {
		t.Fatalf("alignment broken:\n%s", s)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		42:      "42",
		42.4:    "42.40",
		-976.25: "-976.2",
		0.025:   "0.0250",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestMeanStd(t *testing.T) {
	if got := meanStd(42.4, 0.8); got != "42.40 +- 0.8000" {
		t.Fatalf("meanStd = %q", got)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tb := newTable("x", "a", "b")
	tb.AddRow("hello, world", 1.5)
	tb.AddRow(`quote"d`, 2)
	path := filepath.Join(dir, "sub", "out.csv")
	if err := tb.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "\"hello, world\"") {
		t.Fatalf("comma not escaped: %s", s)
	}
	if !strings.Contains(s, `"quote""d"`) {
		t.Fatalf("quote not escaped: %s", s)
	}
	if !strings.HasPrefix(s, "a,b\n") {
		t.Fatalf("missing header: %s", s)
	}
}

// TestCurve pins the curve CSV's column order, iter,energy,std, on each of
// 100 builds: an order taken from a map's iteration would vary between
// builds.
func TestCurve(t *testing.T) {
	curve := []core.IterStats{{Iter: 1, Energy: -1.5, Std: 0.3}, {Iter: 2, Energy: -2.0, Std: 0.2}}
	dir := t.TempDir()
	for k := 0; k < 100; k++ {
		if err := saveCSV(dir, "curve.csv", curveTable(curve)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "curve.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if want := "iter,energy,std\n1,-1.50,0.3000\n2,-2,0.2000\n"; string(data) != want {
			t.Fatalf("build %d: curve csv\n%s\nwant\n%s", k, data, want)
		}
	}
}
