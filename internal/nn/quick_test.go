package nn

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// TestMADENormalizationProperty: for random shapes and random parameters
// the autoregressive construction must stay exactly normalized.
func TestMADENormalizationProperty(t *testing.T) {
	f := func(nRaw, hRaw uint8, seed uint64) bool {
		n := 1 + int(nRaw)%8
		h := 1 + int(hRaw)%12
		m := NewMADE(n, h, rng.New(seed))
		perturb(m, rng.New(seed^0xdead), 1.5)
		return math.Abs(probSum(m)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRBMFlipDeltaProperty: the O(h) cached flip delta must equal the
// recomputed log-psi difference for random models, states and bits.
func TestRBMFlipDeltaProperty(t *testing.T) {
	f := func(nRaw, hRaw, bitRaw uint8, seed uint64) bool {
		n := 1 + int(nRaw)%10
		h := 1 + int(hRaw)%10
		bit := int(bitRaw) % n
		m := NewRBM(n, h, rng.New(seed))
		x := make([]int, n)
		rng.New(seed ^ 0xbeef).FillBits(x)
		c := m.NewFlipCache(x)
		y := append([]int(nil), x...)
		y[bit] = 1 - y[bit]
		want := m.LogPsi(y) - m.LogPsi(x)
		return math.Abs(c.Delta(bit)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointRoundTripProperty: save/load must be the identity on
// parameters for random shapes.
func TestCheckpointRoundTripProperty(t *testing.T) {
	f := func(nRaw, hRaw uint8, seed uint64, rbm bool) bool {
		n := 1 + int(nRaw)%12
		h := 1 + int(hRaw)%12
		var wf Wavefunction
		if rbm {
			wf = NewRBM(n, h, rng.New(seed))
		} else {
			wf = NewMADE(n, h, rng.New(seed))
		}
		var buf writerBuffer
		if err := SaveWavefunction(&buf, wf); err != nil {
			return false
		}
		loaded, err := LoadWavefunction(&buf)
		if err != nil {
			return false
		}
		a, b := wf.Params(), loaded.Params()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// writerBuffer is a minimal in-memory io.ReadWriter.
type writerBuffer struct {
	data []byte
	pos  int
}

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.pos >= len(w.data) {
		return 0, errEOF
	}
	n := copy(p, w.data[w.pos:])
	w.pos += n
	return n, nil
}

var errEOF = errString("EOF")

type errString string

func (e errString) Error() string { return string(e) }
