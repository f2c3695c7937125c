package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"paper", "ci", "smoke"} {
		p, err := PresetByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("PresetByName(%q) = %+v, %v", name, p, err)
		}
	}
	if p, err := PresetByName(""); err != nil || p.Name != "ci" {
		t.Fatal("empty preset should default to ci")
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Fatal("unknown preset should error")
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "fig2", "table2", "fig3", "fig4", "table3", "table4", "table5", "distsr", "pipecg", "table6", "table7", "eq14"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("bogus", smokePreset(), &buf, ""); err == nil {
		t.Fatal("unknown id should error")
	}
}

// TestEveryExperimentSmokes runs every experiment at smoke scale, checking
// output and CSV artifacts are produced. This is the integration test of
// the whole harness. Every experiment without a wall-clock column must
// print exactly testdata/<id>.golden, so a refactor of the harness cannot
// move a single printed digit.
func TestEveryExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke suite skipped in -short mode")
	}
	timed := map[string]bool{"table1": true, "table5": true, "pipecg": true}
	p := smokePreset()
	dir := t.TempDir()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(e.ID, p, &buf, dir); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			out := buf.String()
			if !strings.Contains(out, "==") {
				t.Fatalf("%s output missing banner:\n%s", e.ID, out)
			}
			if timed[e.ID] {
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Fatalf("%s output differs from testdata/%s.golden:\n%s\nwant:\n%s", e.ID, e.ID, out, want)
			}
		})
	}
	// CSVs were written.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("expected >=10 CSV artifacts, found %d", len(entries))
	}
	for _, want := range []string{"table1_modeled.csv", "table2.csv", "fig3.csv", "fig4.csv", "table7.csv"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing artifact %s", want)
		}
	}
}

func TestTable1ModeledShape(t *testing.T) {
	// The modeled half of Table 1 must show RBM&MCMC slower than MADE&AUTO
	// at every dimension, as in the paper.
	var buf bytes.Buffer
	p := smokePreset()
	p.MaxRealDim = 0 // skip real runs, keep the modeled table only
	if err := table1(p, &buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "RBM") || !strings.Contains(out, "MADE") {
		t.Fatalf("Table1 output incomplete:\n%s", out)
	}
}

func TestRealDimsFilter(t *testing.T) {
	p := Preset{Dims: []int{8, 16, 400}, MaxRealDim: 20}
	got := realDims(p)
	if len(got) != 2 || got[0] != 8 || got[1] != 16 {
		t.Fatalf("realDims = %v", got)
	}
}

func TestHiddenMADEFloor(t *testing.T) {
	if hiddenMADE(2) < 8 {
		t.Fatal("hiddenMADE floor not applied")
	}
}

func TestInstancesAreFixed(t *testing.T) {
	// The problem instance for a size must be identical across calls
	// (sampled once, reused over seeds), as in the paper.
	g1, _ := maxCutInstance(16)
	g2, _ := maxCutInstance(16)
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatal("maxCutInstance not deterministic")
	}
	t1 := timInstance(12)
	t2 := timInstance(12)
	for i := range t1.Alpha {
		if t1.Alpha[i] != t2.Alpha[i] {
			t.Fatal("timInstance not deterministic")
		}
	}
}

func TestMeanStdOver(t *testing.T) {
	s := meanStdOver([]float64{1, 3})
	if !strings.Contains(s, "2") || !strings.Contains(s, "+-") {
		t.Fatalf("meanStdOver = %q", s)
	}
}
