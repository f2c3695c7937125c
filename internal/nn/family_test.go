package nn

import (
	"bytes"
	"strings"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// TestHotSwapParams pins the hot-swap primitive: after swapping a live
// model onto a checkpoint's parameters, LogPsi — scalar, and through a
// BatchEvaluator built and used BEFORE the swap, the serving layer's shape —
// must be bitwise equal to the checkpoint source's LogPsi (MADE's and the
// RBM's derived caches rebuild through InvalidateParams). The families with
// no derived state (noCache: NADE, RNN) must serve the new parameters after
// a bare copy into Params(), with no InvalidateParams involved at all.
func TestHotSwapParams(t *testing.T) {
	type model interface {
		Wavefunction
		BatchEvaluatorBuilder
	}
	cases := []struct {
		name    string
		mk      func(seed uint64) model
		noCache bool
	}{
		{"made", func(s uint64) model { return NewMADE(9, 11, rng.New(s)) }, false},
		{"rbm", func(s uint64) model { return NewRBM(9, 11, rng.New(s)) }, false},
		{"nade", func(s uint64) model { return NewNADE(9, 11, rng.New(s)) }, true},
		{"rnn", func(s uint64) model { return NewRNN(9, 11, rng.New(s)) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, src := tc.mk(1), tc.mk(2)
			b := randomConfigs(3, 9, rng.New(5))
			x := b.Row(0)
			// Force the live model's lazy caches to materialize on the OLD
			// parameters first, so the swap's invalidation is load-bearing.
			_ = live.LogPsi(x)
			e := live.NewBatchEvaluator(2)
			out := make([]float64, b.N)
			e.LogPsiBatch(b, out)
			check := func(how string) {
				t.Helper()
				if got, want := live.LogPsi(x), src.LogPsi(x); got != want {
					t.Fatalf("%s after %s: LogPsi %v != source %v", tc.name, how, got, want)
				}
				e.LogPsiBatch(b, out)
				for k := range out {
					if want := src.LogPsi(b.Row(k)); out[k] != want {
						t.Fatalf("%s after %s: pre-built evaluator row %d serves %v, source %v", tc.name, how, k, out[k], want)
					}
				}
			}
			if tc.noCache {
				copy(live.Params(), src.Params())
				check("bare copy")
			}
			if err := HotSwapParams(live, src); err != nil {
				t.Fatalf("HotSwapParams: %v", err)
			}
			check("HotSwapParams")
		})
	}
}

// TestHotSwapParamsRoundTripsCheckpoint pins the serving path end to end:
// save a model, load it back through the checkpoint reader, hot-swap a live
// model onto it, and require bitwise-equal amplitudes.
func TestHotSwapParamsRoundTripsCheckpoint(t *testing.T) {
	src := NewMADE(8, 10, rng.New(3))
	var buf bytes.Buffer
	if err := SaveWavefunction(&buf, src); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadWavefunction(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	live := NewMADE(8, 10, rng.New(4))
	if err := HotSwapParams(live, loaded); err != nil {
		t.Fatalf("swap: %v", err)
	}
	x := make([]int, 8)
	rng.New(6).FillBits(x)
	if got, want := live.LogPsi(x), src.LogPsi(x); got != want {
		t.Fatalf("round-tripped swap LogPsi %v != original %v", got, want)
	}
}

// TestHotSwapParamsRejectsMismatches locks the validation teeth: family,
// site-count, and width mismatches must all refuse to swap.
func TestHotSwapParamsRejectsMismatches(t *testing.T) {
	made := NewMADE(8, 10, rng.New(1))
	cases := []struct {
		name string
		src  Wavefunction
		frag string
	}{
		{"family", NewRBM(8, 10, rng.New(2)), "family mismatch"},
		{"sites", NewMADE(9, 10, rng.New(2)), "architecture mismatch"},
		{"width", NewMADE(8, 12, rng.New(2)), "architecture mismatch"},
	}
	for _, tc := range cases {
		err := HotSwapParams(made, tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: want error containing %q, got %v", tc.name, tc.frag, err)
		}
	}
}

// TestKindName pins the family-name vocabulary shared with the CLI flags.
func TestKindName(t *testing.T) {
	if got := KindName(NewMADE(4, 4, rng.New(1))); got != "made" {
		t.Fatalf("made: %q", got)
	}
	if got := KindName(NewRBM(4, 4, rng.New(1))); got != "rbm" {
		t.Fatalf("rbm: %q", got)
	}
	if got := KindName(NewNADE(4, 4, rng.New(1))); got != "nade" {
		t.Fatalf("nade: %q", got)
	}
	if got := KindName(NewRNN(4, 4, rng.New(1))); got != "rnn" {
		t.Fatalf("rnn: %q", got)
	}
	if got := KindName(nil); got != "" {
		t.Fatalf("nil: %q", got)
	}
}

// TestFamilyTable: for every family New builds, the table's parameter count
// (the one the checkpoint loader validates headers against) is the model's
// NumParams and KindName maps the model back to its name. Names resolve in
// any letter case; an unknown name is an error.
func TestFamilyTable(t *testing.T) {
	if got, want := strings.Join(Kinds(), ","), "made,rbm,nade,rnn"; got != want {
		t.Fatalf("Kinds() = %s, want %s", got, want)
	}
	for i, k := range Kinds() {
		if f := named(k); f.kind != byte(i+1) {
			t.Errorf("%s: kind byte %d, want %d", k, f.kind, i+1)
		}
		for _, nh := range [][2]int{{1, 1}, {5, 3}, {17, 9}} {
			n, h := nh[0], nh[1]
			m, err := New(k, n, h, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := named(k).params(int64(n), int64(h)), int64(m.NumParams()); got != want {
				t.Errorf("%s n=%d h=%d: table says %d params, model has %d", k, n, h, got, want)
			}
			if got := KindName(m); got != k {
				t.Errorf("%s n=%d h=%d: KindName = %q", k, n, h, got)
			}
			if m.NumSites() != n || m.(interface{ Hidden() int }).Hidden() != h {
				t.Errorf("%s: built n=%d h=%d, asked for n=%d h=%d", k, m.NumSites(), m.(interface{ Hidden() int }).Hidden(), n, h)
			}
			upper, err := New(strings.ToUpper(k), n, h, rng.New(1))
			if err != nil || KindName(upper) != k {
				t.Fatalf("%s: upper-case name gave %v, %v", k, upper, err)
			}
		}
		if DefaultHidden(strings.ToUpper(k), 30) != DefaultHidden(k, 30) {
			t.Errorf("%s: DefaultHidden depends on letter case", k)
		}
	}
	for _, name := range []string{"", "vae", "made "} {
		if m, err := New(name, 4, 4, rng.New(1)); err == nil {
			t.Errorf("New(%q) built %T, want an error", name, m)
		}
	}
	if DefaultHidden("vae", 30) != HiddenMADE(30) {
		t.Error("an unknown name should get the MADE width rule")
	}
}
