package nn

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
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

// TestCheckpointRoundTripNADERNN: NADE and RNN checkpoints must round-trip
// with bitwise-identical evaluations — the prerequisite for these models
// riding dist.Trainer.Recover (before PR 7 SaveWavefunction rejected them).
func TestCheckpointRoundTripNADERNN(t *testing.T) {
	r := rng.New(21)
	models := []Wavefunction{NewNADE(8, 5, r), NewRNN(7, 6, r)}
	for _, m := range models {
		for i := range m.Params() {
			m.Params()[i] += r.Uniform(-1, 1)
		}
		InvalidateParams(m)
		var buf bytes.Buffer
		if err := SaveWavefunction(&buf, m); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		wf, err := LoadWavefunction(&buf)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if wf.NumSites() != m.NumSites() || wf.NumParams() != m.NumParams() {
			t.Fatalf("%T: shape lost (n=%d d=%d)", m, wf.NumSites(), wf.NumParams())
		}
		x := make([]int, m.NumSites())
		for trial := 0; trial < 20; trial++ {
			r.FillBits(x)
			if m.LogPsi(x) != wf.LogPsi(x) {
				t.Fatalf("loaded %T disagrees with original", m)
			}
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
	// RNN(4,3): d = 3*3 + 4*3 + 4 = 25.
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
		{"param count mismatch RNN", header("PVQ1", 4, 4, 3, 31, 31)},
		{"zero sites NADE", header("PVQ1", 3, 0, 3, 3, 3)},
		{"zero hidden RNN", header("PVQ1", 4, 4, 0, 4, 4)},
		{"truncated payload RNN", header("PVQ1", 4, 4, 3, 25, 24)},
		// 2*(2^31-1)*(2^31-1) params claimed: must fail the derived-count
		// check in int64 arithmetic without ever allocating.
		{"absurd dims MADE", header("PVQ1", 1, 1<<31-1, 1<<31-1, 1<<31-1, 0)},
		{"absurd dims RBM", header("PVQ1", 2, 1<<31-1, 1<<31-1, 1<<31-1, 0)},
		{"absurd dims NADE", header("PVQ1", 3, 1<<31-1, 1<<31-1, 1<<31-1, 0)},
		{"absurd dims RNN", header("PVQ1", 4, 1<<31-1, 1<<31-1, 1<<31-1, 0)},
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
// errors without panicking or loads a model whose re-saved checkpoint equals
// the consumed input, byte for byte. Seeds are a valid checkpoint of each
// kind, whole and truncated at the end of every header field.
func FuzzLoadWavefunction(f *testing.F) {
	r := rng.New(31)
	for _, m := range []Wavefunction{NewMADE(4, 3, r), NewRBM(4, 3, r), NewNADE(4, 3, r), NewRNN(4, 3, r)} {
		var buf bytes.Buffer
		if err := SaveWavefunction(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// magic (4), kind (1), n, h, d (4 each).
		for _, cut := range []int{0, 4, 5, 9, 13, 17} {
			f.Add(buf.Bytes()[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wf, err := LoadWavefunction(bytes.NewReader(data))
		if err != nil {
			return
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
