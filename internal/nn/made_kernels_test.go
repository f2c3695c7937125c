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

// lockstepModel returns a MADE of shape (n, h) for the sampler tests: kind
// 0 is a fresh model, kind 1 a peaked one (|B2| up to 12, so most
// conditionals sit near 0 or 1 and rows share long prefixes), kind 2 one
// trained towards a random configuration by a few gradient steps on its
// log-probability. About a ninth of the parameters are then set to +0 and
// another ninth to -0.
func lockstepModel(n, h, kind int, r *rng.Rand) *MADE {
	m := NewMADE(n, h, r)
	switch kind {
	case 1:
		for i := range m.B2 {
			m.B2[i] = (2*r.Float64() - 1) * 12
		}
	case 2:
		x, g := make([]int, n), tensor.NewVector(m.NumParams())
		r.FillBits(x)
		for range 6 {
			m.GradLogPsi(x, g)
			m.Params().AXPY(1, g)
			InvalidateParams(m)
		}
	}
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
	return m
}

// checkLockstep samples u through lock and rows and fails unless every bit
// and the cumulative forward-pass counts are equal.
func checkLockstep(t *testing.T, what string, lock, rows BatchAncestralSampler, n int, u []float64, workers int) {
	t.Helper()
	bs := len(u) / n
	got, want := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}, ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
	lock.Sample(got, u, workers)
	rows.Sample(want, u, workers)
	for i := range want.Bits {
		if got.Bits[i] != want.Bits[i] {
			t.Fatalf("%s: row %d site %d drew %d, row path %d", what, i/n, i%n, got.Bits[i], want.Bits[i])
		}
	}
	if lp, rp := lock.ForwardPasses(), rows.ForwardPasses(); lp != rp {
		t.Fatalf("%s: %d forward passes, row path %d", what, lp, rp)
	}
}

// TestMADELockstepMatchesRows holds MADE's prefix-shared lockstep sampler
// to the row path over the incremental evaluator: the same bits for every
// row and the same forward-pass count. The cells cover fresh models, whose
// rows part below depth log2(B), and peaked and trained ones, whose rows
// share long prefixes; batches from one row to several chunks, with fresh
// uniforms and with one row's uniforms repeated (one configuration all the
// way down); one to three workers; signed-zero parameters. Each model keeps
// one sampler of each kind across its cells, so lane state left by an
// earlier call is in place when the next one starts. The walk runs on the
// Go lane forms where the assembly is absent.
func TestMADELockstepMatchesRows(t *testing.T) {
	for _, sh := range [][2]int{{1, 3}, {2, 2}, {3, 5}, {7, 9}, {16, 30}, {33, 61}, {64, 86}} {
		n, h := sh[0], sh[1]
		r := rng.New(uint64(7*n + h))
		for kind := range 3 {
			m := lockstepModel(n, h, kind, r)
			lock, rows := &madeLockstep{m: m}, &rowAncestral{sites: n, newEval: m.NewIncrementalEvaluator}
			for _, bs := range []int{1, 4, 5, 7, 64, 1024} {
				for _, workers := range []int{1, 2, 3} {
					for _, repeated := range []bool{false, true} {
						u := make([]float64, bs*n)
						for i := range u {
							u[i] = r.Float64()
							if repeated && i >= n {
								u[i] = u[i%n]
							}
						}
						what := fmt.Sprintf("n=%d h=%d kind=%d B=%d workers=%d repeated=%v", n, h, kind, bs, workers, repeated)
						checkLockstep(t, what, lock, rows, n, u, workers)
					}
				}
			}
		}
	}
}

// FuzzMADESamplerMatchesRows is TestMADELockstepMatchesRows over
// fuzzer-chosen shapes, batch sizes up to several chunks, worker counts,
// bias scales (a large one peaks the conditionals) and duplicate patterns
// (with dup > 0 every row past the first dup repeats one of their uniform
// rows).
func FuzzMADESamplerMatchesRows(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6), uint16(63), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(63), uint8(85), uint16(1023), uint8(1), uint8(160), uint8(0))
	f.Add(uint64(9), uint8(31), uint8(59), uint16(299), uint8(2), uint8(255), uint8(5))
	f.Add(uint64(5), uint8(0), uint8(0), uint16(6), uint8(2), uint8(40), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, hRaw uint8, bRaw uint16, wRaw, scale, dup uint8) {
		n, h := 1+int(nRaw)%64, 1+int(hRaw)%96
		bs, workers := 1+int(bRaw)%1100, 1+int(wRaw)%3
		r := rng.New(seed)
		m := NewMADE(n, h, r)
		for i := range m.B2 {
			m.B2[i] += float64(scale) / 16 * r.Norm()
		}
		if seed%3 == 0 {
			m.Params()[r.Intn(m.NumParams())] = math.Copysign(0, -1)
		}
		InvalidateParams(m)
		u := make([]float64, bs*n)
		r.FillUniform(u, 0, 1)
		for k := int(dup); dup > 0 && k < bs; k++ {
			copy(u[k*n:(k+1)*n], u[r.Intn(int(dup))*n:])
		}
		what := fmt.Sprintf("n=%d h=%d B=%d workers=%d scale=%d dup=%d", n, h, bs, workers, scale, dup)
		checkLockstep(t, what, &madeLockstep{m: m}, &rowAncestral{sites: n, newEval: m.NewIncrementalEvaluator}, n, u, workers)
	})
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

// BenchmarkMADESample times MADE's batched ancestral sampler on one worker
// at B = 1024 on a fresh model, whose rows are nearly all distinct: the
// warm-up batches of a training run, and the case where sharing prefixes
// saves least. h = 5(ln n)^2, as in the benchmark shapes.
func BenchmarkMADESample(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const bs = 1024
			h := int(5 * math.Log(float64(n)) * math.Log(float64(n)))
			r := rng.New(uint64(n))
			m := NewMADE(n, h, r)
			u := make([]float64, bs*n)
			for i := range u {
				u[i] = r.Float64()
			}
			batch := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
			smp := m.NewBatchAncestralSampler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smp.Sample(batch, u, 1)
			}
		})
	}
}
