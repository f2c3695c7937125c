package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// seqGolden is NADE's golden row: bit patterns produced by the source of
// commit 389fbb7 (PR 16), where NADE was a hand-written scalar
// implementation. The values were captured by running measureSeqGolden on
// that commit; nothing here was regenerated after later refactors, so "no
// bit moved" is pinned against the old arithmetic.
type seqGolden struct {
	logPsi  [8]uint64 // math.Float64bits of LogPsi on goldenRows
	flip    [7]uint64 // FlipLogPsi(b) for every b of goldenRows[2]
	grad    uint64    // FNV-1a over the bits of GradLogPsi(goldenRows[4])
	sampled uint64    // the 8 x 7 bits NewBatchAncestralSampler draws, bit k*7+i = site i of row k
}

var nadeGolden = seqGolden{
	logPsi:  [8]uint64{0xbffd71157b4e2f17, 0xc00f03f4294aae0b, 0xc0089e828ea8c3e9, 0xc0018c4bda5a9fc8, 0xc00687d5755cc11c, 0xc00344f57ebfff94, 0xc00a58be8c640c20, 0xc003c2253091d627},
	flip:    [7]uint64{0xc004f98b1ea1d9d0, 0xc00b8137d1437dc0, 0xc001a250ce4c0692, 0xc00a770fa430f120, 0xc00643d32521728a, 0xc0099e15210e90cf, 0xc009317b358a7306},
	grad:    0xdbe60b71a2f6d7a4,
	sampled: 0x10a4538a49a2ad,
}

// goldenRows are eight 7-bit configurations, bit i of the byte = site i.
var goldenRows = [8]uint8{0x00, 0x7f, 0x55, 0x2a, 0x13, 0x64, 0x0f, 0x71}

func goldenBits(v uint8, x []int) {
	for i := range x {
		x[i] = int(v>>uint(i)) & 1
	}
}

// libmCanary hashes a few math.Exp / Tanh / Log1p values. The golden table
// pins this package's arithmetic, not package math's: math.Exp takes an FMA
// path on amd64 CPUs that have one and other architectures fuse a*b+c, so
// on a host where the canary differs the table does not apply.
func libmCanary() uint64 {
	var h uint64
	for _, v := range []float64{-2.75, -0.3, 0.61, 1.9} {
		h = h*31 + math.Float64bits(math.Exp(v)) + math.Float64bits(math.Tanh(v)) + math.Float64bits(math.Log1p(math.Exp(v)))
	}
	return h
}

func measureSeqGolden(m batchModel) seqGolden {
	const n = 7
	var g seqGolden
	x := make([]int, n)
	for k, v := range goldenRows {
		goldenBits(v, x)
		g.logPsi[k] = math.Float64bits(m.LogPsi(x))
	}
	goldenBits(goldenRows[2], x)
	c := m.NewFlipCache(x).(tailFlipCache)
	for b := 0; b < n; b++ {
		g.flip[b] = math.Float64bits(c.FlipLogPsi(b))
	}
	goldenBits(goldenRows[4], x)
	grad := tensor.NewVector(m.NumParams())
	m.GradLogPsi(x, grad)
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range grad {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	g.grad = h.Sum64()
	u := make([]float64, 8*n)
	rng.New(2024).FillUniform(u, 0, 1)
	b := ConfigBatch{N: 8, Sites: n, Bits: make([]int, 8*n)}
	m.NewBatchAncestralSampler().Sample(b, u, 2)
	for i, bit := range b.Bits {
		g.sampled |= uint64(bit) << uint(i)
	}
	return g
}

// TestSeqGoldenBits holds NADE to the bits its pre-refactor implementation
// produced (n = 7, h = 9, fixed seeds).
func TestSeqGoldenBits(t *testing.T) {
	if got := libmCanary(); got != 0x6e4ea60d89b8a873 {
		t.Skipf("math.Exp/Tanh/Log1p round differently on this host (canary %#x); the table was captured on amd64 with FMA", got)
	}
	m := NewNADE(7, 9, rng.New(1234))
	perturb(m, rng.New(77), 0.8)
	if got := measureSeqGolden(m); got != nadeGolden {
		t.Errorf("bits moved against commit 389fbb7\n got  %#x\n want %#x", got, nadeGolden)
	}
}
