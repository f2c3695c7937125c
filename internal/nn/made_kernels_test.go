package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// The MADE row folds run on tensor's row kernels (Vector.Add and AXPY,
// which take the AVX2 lanes from the crossover length up). The references
// below are the loops those folds were before, verbatim: every fold must
// equal its loop bit for bit, at widths on both sides of the crossover.

func refAccumulateInput(m *MADE, z1 tensor.Vector, wm1t *tensor.Matrix, i, bit int) {
	if bit == 0 {
		return
	}
	wrow := wm1t.Row(i)
	for _, run := range m.flipRuns[i] {
		dst := z1[run[0]:run[1]]
		for k, w := range wrow[run[0]:run[1]] {
			dst[k] += w
		}
	}
}

func refResumeLayer1(m *MADE, z1b, xb *tensor.Matrix, preBand []float64, wm1t *tensor.Matrix, bit int) {
	runs := m.flipRuns[bit]
	for si := 0; si < z1b.Rows; si++ {
		zrow := z1b.Row(si)
		prow := preBand[si*m.h : (si+1)*m.h]
		for _, run := range runs {
			copy(zrow[run[0]:run[1]], prow[run[0]:run[1]])
		}
		xrow := xb.Row(si)
		for i := bit; i < m.n; i++ {
			if xrow[i] != 1 {
				continue
			}
			wrow := wm1t.Row(i)
			off := 0
			if m.runsAscending {
				off = i - bit
			}
			for _, run := range runs {
				r0 := run[0] + off
				if r0 >= run[1] {
					continue
				}
				dst := zrow[r0:run[1]]
				src := wrow[r0:run[1]]
				for k := range dst {
					dst[k] += src[k]
				}
			}
		}
	}
}

func refResumeLayer2(m *MADE, z2b, z1b *tensor.Matrix, preBand2 []float64, wm2t *tensor.Matrix, bit int) {
	k0 := m.flipRuns[bit][0][0]
	for si := 0; si < z2b.Rows; si++ {
		zrow := z2b.Row(si)[bit+1:]
		copy(zrow, preBand2[si*m.n+bit+1:(si+1)*m.n])
		arow := z1b.Row(si)
		for k := k0; k < m.h; k++ {
			av := arow[k]
			if av <= 0 {
				continue
			}
			lo2 := bit + 1
			if d := m.deg[k]; d > lo2 {
				lo2 = d
			} else if d == 0 {
				continue
			}
			if lo2 >= m.n {
				continue
			}
			wsub := wm2t.Row(k)[lo2:]
			dsub := zrow[lo2-bit-1:]
			for j, wv := range wsub {
				dsub[j] += float64(av * wv)
			}
		}
	}
}

// kernelShapes are (n, h) pairs whose runs and rows fall on both sides of
// the crossover: the two benchmark shapes and small ragged ones.
var kernelShapes = [][2]int{{2, 3}, {5, 7}, {13, 29}, {32, 60}, {64, 86}}

// spiky fills x with uniforms of mixed scale, a fifth of them -0 or +0, so
// the folds meet signed zeros and sums that round.
func spiky(x []float64, r *rng.Rand) {
	for i := range x {
		switch r.Intn(5) {
		case 0:
			x[i] = math.Copysign(0, -1)
		case 1:
			x[i] = 0
		default:
			x[i] = (2*r.Float64() - 1) * math.Ldexp(1, r.Intn(40)-20)
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %#x, pre-kernel loop %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestAccumulateInputMatchesLoop(t *testing.T) {
	for _, sh := range kernelShapes {
		n, h := sh[0], sh[1]
		r := rng.New(uint64(n*1000 + h))
		m := NewMADE(n, h, r)
		wm1t, _ := m.maskedWeights()
		for i := 0; i < n; i++ {
			for _, bit := range []int{0, 1} {
				z1 := tensor.NewVector(h)
				spiky(z1, r)
				want := z1.Clone()
				m.accumulateInput(z1, wm1t, i, bit)
				refAccumulateInput(m, want, wm1t, i, bit)
				requireSameBits(t, "accumulateInput", z1, want)
			}
		}
	}
}

func TestResumeLayersMatchLoops(t *testing.T) {
	const s = 3
	for _, sh := range kernelShapes {
		n, h := sh[0], sh[1]
		r := rng.New(uint64(n*1000 + h))
		m := NewMADE(n, h, r)
		wm1t, wm2t := m.maskedWeights()
		for bit := 0; bit < n; bit++ {
			if len(m.flipRuns[bit]) == 0 {
				continue
			}
			xb := tensor.NewMatrix(s, n)
			for i := range xb.Data {
				xb.Data[i] = float64(r.Bit())
			}
			pre := make([]float64, s*h)
			spiky(pre, r)
			z1b := tensor.NewMatrix(s, h)
			spiky(z1b.Data, r)
			want1 := z1b.Clone()
			m.resumeLayer1(z1b, xb, pre, wm1t, bit)
			refResumeLayer1(m, want1, xb, pre, wm1t, bit)
			requireSameBits(t, "resumeLayer1", z1b.Data, want1.Data)
			if bit+1 >= n {
				continue
			}
			pre2 := make([]float64, s*n)
			spiky(pre2, r)
			z2b := tensor.NewMatrix(s, n)
			spiky(z2b.Data, r)
			want2 := z2b.Clone()
			m.resumeLayer2(z2b, z1b, pre2, wm2t, bit)
			refResumeLayer2(m, want2, z1b, pre2, wm2t, bit)
			requireSameBits(t, "resumeLayer2", z2b.Data, want2.Data)
		}
	}
}

// TestMADELockstepMatchesRows holds MADE's batched ancestral sampler (the
// four-row lockstep where the lane kernels run) to the row path over the
// incremental evaluator: the same bits for every row and the same
// forward-pass count, over shapes whose groups of four leave 0-3 rows per
// share, at several worker counts, on models with signed-zero biases and
// weights.
func TestMADELockstepMatchesRows(t *testing.T) {
	for _, sh := range [][2]int{{1, 3}, {2, 2}, {3, 5}, {7, 9}, {16, 30}, {33, 61}, {64, 86}} {
		n, h := sh[0], sh[1]
		r := rng.New(uint64(7*n + h))
		m := NewMADE(n, h, r)
		p := m.Params()
		for i := range p {
			switch r.Intn(9) {
			case 0:
				p[i] = 0
			case 1:
				p[i] = math.Copysign(0, -1)
			}
		}
		InvalidateParams(m)
		for _, bs := range []int{1, 4, 7, 64} {
			for _, workers := range []int{1, 2, 3} {
				u := make([]float64, bs*n)
				for i := range u {
					u[i] = r.Float64()
				}
				got, want := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}, ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
				lock := m.NewBatchAncestralSampler()
				rows := &rowAncestral{sites: n, newEval: m.NewIncrementalEvaluator}
				lock.Sample(got, u, workers)
				rows.Sample(want, u, workers)
				for i := range want.Bits {
					if got.Bits[i] != want.Bits[i] {
						t.Fatalf("n=%d h=%d B=%d workers=%d: row %d site %d drew %d, row path %d",
							n, h, bs, workers, i/n, i%n, got.Bits[i], want.Bits[i])
					}
				}
				if lp, rp := lock.ForwardPasses(), rows.ForwardPasses(); lp != rp {
					t.Fatalf("n=%d h=%d B=%d workers=%d: %d forward passes, row path %d", n, h, bs, workers, lp, rp)
				}
			}
		}
	}
}

// TestLaneKernelsMatchRowKernels holds the lockstep sampler's lane kernels
// to the row kernels they run four at a time: for every site, each lane's
// conditional probability is conditionalRow's bit for bit, and after each
// masked fix each lane's pre-activations are accumulateInput's (or bit 0's
// untouched state), equal as numbers: the one latitude madeLockstep's
// argument allows is the sign of a zero.
func TestLaneKernelsMatchRowKernels(t *testing.T) {
	for _, sh := range kernelShapes {
		n, h := sh[0], sh[1]
		r := rng.New(uint64(n*31 + h))
		m := NewMADE(n, h, r)
		wm1t, _ := m.maskedWeights()
		rows := make([]tensor.Vector, 4)
		lanes := make([]float64, 4*h)
		for l := range rows {
			rows[l] = tensor.NewVector(h)
			spiky(rows[l], r)
			for k, v := range rows[l] {
				lanes[4*k+l] = v
			}
		}
		for i := 0; i < n; i++ {
			zi := [4]float64{m.B2[i], m.B2[i], m.B2[i], m.B2[i]}
			for _, run := range m.outRuns[i] {
				cond4AVX2(&zi, m.W2.Row(i)[run[0]:run[1]], lanes[4*run[0]:4*run[1]])
			}
			var mask [4]uint64
			for l := range rows {
				p, want := 1/(1+math.Exp(-zi[l])), m.conditionalRow(rows[l], i)
				if math.Float64bits(p) != math.Float64bits(want) {
					t.Fatalf("n=%d h=%d site %d lane %d: p = %#x, conditionalRow %#x", n, h, i, l, math.Float64bits(p), math.Float64bits(want))
				}
				bit := r.Bit()
				if bit == 1 {
					mask[l] = math.MaxUint64
				}
				m.accumulateInput(rows[l], wm1t, i, bit)
			}
			for _, run := range m.flipRuns[i] {
				add4MaskedAVX2(lanes[4*run[0]:4*run[1]], wm1t.Row(i)[run[0]:run[1]], &mask)
			}
			for l := range rows {
				for k, want := range rows[l] {
					if got := lanes[4*k+l]; got != want {
						t.Fatalf("n=%d h=%d fix %d lane %d unit %d: %v, accumulateInput %v", n, h, i, l, k, got, want)
					}
				}
			}
		}
	}
}

// w2Operand draws one operand for the dW2 kernel test: 3/8 of the draws
// come from a palette of IEEE edge cases (signed zeros, the smallest and
// largest subnormals, the smallest normal, +/-MaxFloat64, infinities,
// +/-1), 3/8 are uniforms in [-1, 1), and the rest uniforms of mixed
// magnitude or raw bit patterns. NaN never appears as an input (which
// payload an operation on two NaNs returns is left open).
func w2Operand(r *rng.Rand) float64 {
	palette := [...]float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x0008000000000001),
		2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), 1, -1,
	}
	switch r.Intn(8) {
	case 0, 1, 2:
		return palette[r.Intn(len(palette))]
	case 3, 4, 5:
		return 2*r.Float64() - 1
	case 6:
		return (2*r.Float64() - 1) * math.Ldexp(1, r.Intn(2100)-1075)
	}
	x := math.Float64frombits(r.Uint64())
	if math.IsNaN(x) {
		return math.Inf(-1)
	}
	return x
}

// w2Rows returns a d row of n+2 operands starting doff elements into its
// backing array and a dz2 row of n starting soff in (offsets 0..3 cover
// every 32-byte alignment of a float64 slice).
func w2Rows(r *rng.Rand, n, doff, soff int) (d, dz2 []float64) {
	fill := func(count, off int) []float64 {
		back := make([]float64, off+count+3)
		for i := range back {
			back[i] = w2Operand(r)
		}
		return back[off : off+count]
	}
	return fill(n+2, doff), fill(n, soff)
}

// TestW2KernelMatchesLoop holds the weighted backward's dW2 kernel
// (addW2AVX2, lanes_amd64.s) to its Go loop addW2Go bit for bit: every
// length 0..67 at every pair of alignments of d and dz2, with ak and w
// drawn like the elements, and then the dispatcher addW2Row across the
// crossover. The two elements past the run must stay untouched. On a build
// without the assembly both sides are the Go loop.
func TestW2KernelMatchesLoop(t *testing.T) {
	r := rng.New(13)
	check := func(what string, n int, d, dz2 []float64, ak, w float64, kernel func(d []float64)) {
		t.Helper()
		want := append([]float64(nil), d...)
		addW2Go(want[:n], dz2, ak, w)
		got := append([]float64(nil), d...)
		kernel(got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s n=%d ak=%v w=%v: element %d = %#x, Go loop %#x", what, n, ak, w, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for doff := 0; doff < 4; doff++ {
			for soff := 0; soff < 4; soff++ {
				for trial := 0; trial < 3; trial++ {
					d, dz2 := w2Rows(r, n, doff, soff)
					ak, w := w2Operand(r), w2Operand(r)
					check("kernel", n, d, dz2, ak, w, func(d []float64) { addW2AVX2(d[:n], dz2, ak, w) })
				}
			}
		}
	}
	for n := 0; n <= 2*w2Crossover+5; n++ {
		d, dz2 := w2Rows(r, n, n%4, (n+1)%4)
		ak, w := w2Operand(r), w2Operand(r)
		check("addW2Row", n, d, dz2, ak, w, func(d []float64) { addW2Row(d, dz2, ak, w) })
	}
}

// BenchmarkAddW2Row times addW2Row's Go loop (inlined into the benchmark
// loop, as at a call site) against the AVX2 kernel at the run lengths
// around the crossover and at the n = 64 benchmark shape's longest run:
// the data behind w2Crossover.
func BenchmarkAddW2Row(b *testing.B) {
	r := rng.New(5)
	for _, n := range []int{2, 4, 6, 8, 10, 12, 16, 32, 63} {
		d, dz2 := make([]float64, n), make([]float64, n)
		spiky(dz2, r)
		b.Run(fmt.Sprintf("go/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addW2Go(d, dz2, 0.75, 1e-3)
			}
		})
		b.Run(fmt.Sprintf("avx2/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addW2AVX2(d, dz2, 0.75, 1e-3)
			}
		})
	}
}
