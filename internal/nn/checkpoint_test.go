package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

func TestCheckpointRoundTripMADE(t *testing.T) {
	r := rng.New(1)
	m := NewMADE(9, 7, r)
	// Move parameters off their init values.
	for i := range m.Params() {
		m.Params()[i] += r.Uniform(-1, 1)
	}
	var buf bytes.Buffer
	if err := SaveWavefunction(&buf, m); err != nil {
		t.Fatal(err)
	}
	wf, err := LoadWavefunction(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := wf.(*MADE)
	if !ok {
		t.Fatalf("loaded %T, want *MADE", wf)
	}
	if m2.NumSites() != 9 || m2.Hidden() != 7 {
		t.Fatalf("shape lost: n=%d h=%d", m2.NumSites(), m2.Hidden())
	}
	x := make([]int, 9)
	for trial := 0; trial < 20; trial++ {
		r.FillBits(x)
		if m.LogProb(x) != m2.LogProb(x) {
			t.Fatal("loaded model disagrees with original")
		}
	}
}

func TestCheckpointRoundTripRBM(t *testing.T) {
	r := rng.New(2)
	m := NewRBM(6, 11, r)
	var buf bytes.Buffer
	if err := SaveWavefunction(&buf, m); err != nil {
		t.Fatal(err)
	}
	wf, err := LoadWavefunction(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, ok := wf.(*RBM)
	if !ok {
		t.Fatalf("loaded %T, want *RBM", wf)
	}
	x := make([]int, 6)
	for trial := 0; trial < 20; trial++ {
		r.FillBits(x)
		if m.LogPsi(x) != m2.LogPsi(x) {
			t.Fatal("loaded RBM disagrees with original")
		}
	}
}

// TestCheckpointRoundTripNADE: a NADE checkpoint must round-trip with
// bitwise-identical evaluations — the prerequisite for NADE riding
// dist.Trainer.Recover.
func TestCheckpointRoundTripNADE(t *testing.T) {
	r := rng.New(21)
	m := NewNADE(8, 5, r)
	for i := range m.Params() {
		m.Params()[i] += r.Uniform(-1, 1)
	}
	var buf bytes.Buffer
	if err := SaveWavefunction(&buf, m); err != nil {
		t.Fatal(err)
	}
	wf, err := LoadWavefunction(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wf.(*NADE); !ok || wf.NumSites() != 8 || wf.NumParams() != m.NumParams() {
		t.Fatalf("loaded %T with n=%d d=%d, want *NADE with n=8 d=%d", wf, wf.NumSites(), wf.NumParams(), m.NumParams())
	}
	x := make([]int, 8)
	for trial := 0; trial < 20; trial++ {
		r.FillBits(x)
		if m.LogPsi(x) != wf.LogPsi(x) {
			t.Fatal("loaded NADE disagrees with original")
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.pvq")
	m := NewMADE(5, 4, rng.New(3))
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	wf, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if wf.NumParams() != m.NumParams() {
		t.Fatal("param count lost")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadWavefunction(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated payload.
	m := NewMADE(4, 3, rng.New(4))
	var buf bytes.Buffer
	if err := SaveWavefunction(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-7]
	if _, err := LoadWavefunction(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestCheckpointUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveWavefunction(&buf, fakeWavefunction{}); err == nil {
		t.Fatal("unknown wavefunction type accepted")
	}
}

type fakeWavefunction struct{}

func (fakeWavefunction) NumSites() int                       { return 1 }
func (fakeWavefunction) NumParams() int                      { return 1 }
func (fakeWavefunction) Params() tensor.Vector               { return tensor.Vector{0} }
func (fakeWavefunction) LogPsi(x []int) float64              { return 0 }
func (fakeWavefunction) GradLogPsi(x []int, g tensor.Vector) {}

// header builds a raw checkpoint header (magic, kind, n, h, d) followed by
// payload float64 zeros, for the corrupt-header table.
func header(magic string, kind byte, n, h, d uint32, payloadFloats int) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(kind)
	for _, v := range []uint32{n, h, d} {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	buf.Write(make([]byte, 8*payloadFloats))
	return buf.Bytes()
}

// TestCheckpointCorruptHeaders is the hardening table: every corrupt header
// must be rejected with an error BEFORE the O(n*h) model allocation — in
// particular the absurd-dims rows would OOM the test process if validation
// ran after construction.
func TestCheckpointCorruptHeaders(t *testing.T) {
	// MADE(4,3): d = 2*3*4 + 3 + 4 = 31. RBM(4,3): d = 3*4 + 4 + 3 + 1 = 20.
	// NADE(4,3): d = 2*3*4 + 3 + 4 = 31 (same as MADE; kind disambiguates).
	// Kind 4 was the deleted RNN family, RNN(4,3): d = 3*3 + 4*3 + 4 = 25.
	cases := []struct {
		name string
		raw  []byte
	}{
		{"bad magic", header("PVQ2", 1, 4, 3, 31, 31)},
		{"bad kind", header("PVQ1", 9, 4, 3, 31, 31)},
		{"kind zero", header("PVQ1", 0, 4, 3, 31, 31)},
		{"truncated payload", header("PVQ1", 1, 4, 3, 31, 30)},
		{"truncated header", header("PVQ1", 1, 4, 3, 31, 31)[:9]},
		{"zero sites", header("PVQ1", 1, 0, 3, 3, 3)},
		{"zero hidden", header("PVQ1", 2, 4, 0, 5, 5)},
		{"param count mismatch MADE", header("PVQ1", 1, 4, 3, 30, 30)},
		{"param count mismatch RBM", header("PVQ1", 2, 4, 3, 31, 31)},
		{"param count mismatch NADE", header("PVQ1", 3, 4, 3, 30, 30)},
		{"zero sites NADE", header("PVQ1", 3, 0, 3, 3, 3)},
		// A well-formed checkpoint of the retired kind: the loader's
		// unknown-kind path refuses it like any other byte outside the table.
		{"retired kind 4", header("PVQ1", 4, 4, 3, 25, 25)},
		// 2*(2^31-1)*(2^31-1) params claimed: must fail the derived-count
		// check in int64 arithmetic without ever allocating.
		{"absurd dims MADE", header("PVQ1", 1, 1<<31-1, 1<<31-1, 1<<31-1, 0)},
		{"absurd dims RBM", header("PVQ1", 2, 1<<31-1, 1<<31-1, 1<<31-1, 0)},
		{"absurd dims NADE", header("PVQ1", 3, 1<<31-1, 1<<31-1, 1<<31-1, 0)},
		// Under the cap (d = 2*2048^2 + 4096 ≈ 8.4 M) but with no payload:
		// the loader must fail on the missing bytes without first building
		// the ~67 MB model.
		{"empty payload large MADE", header("PVQ1", 1, 2048, 2048, 2*2048*2048+2*2048, 0)},
		// Dims whose derived count is internally consistent but past the
		// plausibility cap (MADE 2^14 x 2^14: d = 2*2^28 + 2^15 > 2^28).
		{"over cap consistent MADE", header("PVQ1", 1, 1<<14, 1<<14, 0, 0)},
	}
	// Make the over-cap row's d header-consistent so only the cap rejects it.
	want := named("made").params(1<<14, 1<<14)
	if want <= 1<<28 || want > 1<<32-1 {
		t.Fatalf("over-cap row needs 2^28 < d < 2^32, got %d", want)
	}
	// d sits at byte 13: magic (4) + kind (1) + n (4) + h (4).
	binary.LittleEndian.PutUint32(cases[len(cases)-1].raw[13:], uint32(want))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			wf, err := LoadWavefunction(bytes.NewReader(tc.raw))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("corrupt checkpoint accepted, loaded %T", wf)
			}
			// Allocation is bounded by the bytes present, not the header.
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("rejecting %d bytes allocated %d, want < 1 MiB", len(tc.raw), got)
			}
		})
	}
}

// FuzzLoadWavefunction feeds arbitrary bytes to the loader: it either
// errors without panicking or loads a model with finite parameters whose
// re-saved checkpoint equals the consumed input, byte for byte. Seeds are a
// valid checkpoint of each kind, whole, truncated at the end of every header
// field, and with a NaN or -Inf first or last parameter.
func FuzzLoadWavefunction(f *testing.F) {
	r := rng.New(31)
	for _, m := range []Wavefunction{NewMADE(4, 3, r), NewRBM(4, 3, r), NewNADE(4, 3, r)} {
		var buf bytes.Buffer
		if err := SaveWavefunction(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// magic (4), kind (1), n, h, d (4 each).
		for _, cut := range []int{0, 4, 5, 9, 13, 17} {
			f.Add(buf.Bytes()[:cut])
		}
		// The same checkpoint with a non-finite first or last parameter.
		for _, at := range []int{17, buf.Len() - 8} {
			for _, v := range []float64{math.NaN(), math.Inf(-1)} {
				bad := bytes.Clone(buf.Bytes())
				binary.LittleEndian.PutUint64(bad[at:], math.Float64bits(v))
				f.Add(bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wf, err := LoadWavefunction(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, v := range wf.Params() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("loaded %T with parameter %d = %v", wf, i, v)
			}
		}
		var out bytes.Buffer
		if err := SaveWavefunction(&out, wf); err != nil {
			t.Fatalf("re-saving a loaded %T: %v", wf, err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("loaded %T does not round-trip its %d input bytes", wf, len(data))
		}
	})
}

// TestSaveFileAtomic: overwriting an existing checkpoint must leave either
// the old or the new complete file, and no temp droppings on success or on
// failure.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.pvq")
	old := NewMADE(5, 4, rng.New(6))
	if err := SaveFile(path, old); err != nil {
		t.Fatal(err)
	}
	nu := NewMADE(5, 4, rng.New(7))
	if err := SaveFile(path, nu); err != nil {
		t.Fatal(err)
	}
	wf, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := []int{1, 0, 1, 1, 0}
	if wf.LogPsi(x) != nu.LogPsi(x) {
		t.Fatal("overwrite did not land the new model")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "model.pvq" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("temp droppings left behind: %v", names)
	}
}

// TestSaveFileFailureLeavesOldCheckpoint: a failing save (unserializable
// model) must not clobber or remove the existing good checkpoint.
func TestSaveFileFailureLeavesOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.pvq")
	good := NewRBM(4, 3, rng.New(8))
	if err := SaveFile(path, good); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, fakeWavefunction{}); err == nil {
		t.Fatal("unserializable model saved without error")
	}
	wf, err := LoadFile(path)
	if err != nil {
		t.Fatalf("old checkpoint destroyed by failed save: %v", err)
	}
	x := []int{0, 1, 1, 0}
	if wf.LogPsi(x) != good.LogPsi(x) {
		t.Fatal("old checkpoint corrupted by failed save")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("failed save left %d entries in dir, want 1", len(ents))
	}
}

// TestSaveFileRelativePath: the temp file must be created next to the
// target even for a bare relative filename (filepath.Dir gives ".", not "",
// which would silently fall back to the system temp dir and break the
// same-filesystem rename guarantee).
func TestSaveFileRelativePath(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	m := NewMADE(4, 3, rng.New(9))
	if err := SaveFile("bare.pvq", m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile("bare.pvq"); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesNonFiniteParams: a checkpoint with -Inf at MADE's
// W1[0][0] (a live weight, parameter 0) fails to load, from a reader and
// from a file, with an error naming that parameter; so does a NaN or +/-Inf
// anywhere in any family's payload. The same model with the value finite
// loads, so the refusal is the value's alone.
func TestLoadRefusesNonFiniteParams(t *testing.T) {
	r := rng.New(41)
	encode := func(wf Wavefunction, at int, v float64) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := SaveWavefunction(&buf, wf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		binary.LittleEndian.PutUint64(raw[17+8*at:], math.Float64bits(v)) // header: 17 bytes
		return raw
	}
	refused := func(what string, err error, at int) {
		t.Helper()
		var nf *nonFiniteParamError
		if !errors.As(err, &nf) || nf.index != at {
			t.Fatalf("%s: loader returned %v, want the refusal of parameter %d", what, err, at)
		}
	}
	made := NewMADE(6, 5, r)
	raw := encode(made, 0, math.Inf(-1))
	_, err := LoadWavefunction(bytes.NewReader(raw))
	refused("MADE W1[0][0] = -Inf", err, 0)
	path := filepath.Join(t.TempDir(), "inf.pvq")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(path)
	refused("LoadFile, MADE W1[0][0] = -Inf", err, 0)
	if _, err := LoadWavefunction(bytes.NewReader(encode(made, 0, -1e300))); err != nil {
		t.Fatalf("finite W1[0][0] refused: %v", err)
	}
	for _, wf := range []Wavefunction{made, NewRBM(6, 5, r), NewNADE(6, 5, r)} {
		d := wf.NumParams()
		for _, at := range []int{0, d / 2, d - 1} {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				_, err := LoadWavefunction(bytes.NewReader(encode(wf, at, v)))
				refused(KindName(wf)+" "+strconv.Itoa(at), err, at)
			}
		}
	}
}

// TestHotSwapParamsRefusesNonFinite: a swap source with a non-finite
// parameter is refused with the same error, and the live model keeps its
// parameters and its evaluations, bit for bit.
func TestHotSwapParamsRefusesNonFinite(t *testing.T) {
	live, src := NewMADE(8, 10, rng.New(1)), NewMADE(8, 10, rng.New(2))
	before := slices.Clone(live.Params())
	x := make([]int, 8)
	rng.New(3).FillBits(x)
	want := live.LogPsi(x)
	src.Params()[7] = math.NaN()
	err := HotSwapParams(live, src)
	var nf *nonFiniteParamError
	if !errors.As(err, &nf) || nf.index != 7 {
		t.Fatalf("HotSwapParams returned %v, want the refusal of parameter 7", err)
	}
	if !slices.Equal(live.Params(), before) || live.LogPsi(x) != want {
		t.Fatal("a refused swap moved the live model")
	}
}
