package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// referenceWeightedGrad is the weighted-reduce contract as plain loops over
// a materialized B x d batch of O-rows: per GradBlockRows block a partial
// that starts at +0 takes w_k * O_k in ascending k, one add per element, and
// the partials are added to dst in ascending block order. It is the
// arithmetic of core.AddWeightedRows over GradLogPsiBatch's rows (the row
// sweeps of package tensor are pinned to these loops by their own tests).
func referenceWeightedGrad(m BatchEvaluatorBuilder, d int, b ConfigBatch, w []float64, dst tensor.Vector) {
	ows := tensor.NewBatch(b.N, d)
	m.NewBatchEvaluator(1).GradLogPsiBatch(b, ows)
	p := tensor.NewVector(d)
	for lo := 0; lo < b.N; lo += GradBlockRows {
		p.Fill(0)
		for k := lo; k < min(lo+GradBlockRows, b.N); k++ {
			for i, o := range ows.Sample(k) {
				p[i] += w[k] * o
			}
		}
		for i := range dst {
			dst[i] += p[i]
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in any bit
// (so +0 and -0 differ), or -1.
func firstBitDiff(a, b tensor.Vector) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// awkwardWeights fills w with the values the skip argument has to survive:
// both zeros, negatives, subnormals and the smallest normal, between
// ordinary centred coefficients.
func awkwardWeights(w []float64, r *rng.Rand) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308}
	for k := range w {
		if c := r.Intn(3 * len(special)); c < len(special) {
			w[k] = special[c]
		} else {
			w[k] = r.Norm() / float64(len(w))
		}
	}
}

// awkwardDst pre-fills a destination: ordinary values with both zeros mixed
// in (dst + p must add p's zeros too: -0 + +0 is +0).
func awkwardDst(d int, r *rng.Rand) tensor.Vector {
	dst := tensor.NewVector(d)
	for i := range dst {
		switch r.Intn(8) {
		case 0:
			dst[i] = math.Copysign(0, -1)
		case 1:
			dst[i] = 0
		default:
			dst[i] = r.Norm()
		}
	}
	return dst
}

// pushTowards walks the parameters steps steps up the log-amplitude of the
// target configurations — a stand-in for training that leaves what the
// fused backward's skips key on: dead ReLU units, saturated conditionals —
// and returns a batch of bs configurations near the targets (each bit of a
// target flipped with probability 0.15), the biased bit patterns a trained
// sampler would emit.
func pushTowards(m rowFamily, targets ConfigBatch, steps, bs int, r *rng.Rand) ConfigBatch {
	d := m.NumParams()
	ev := m.NewBatchEvaluator(1)
	ows := tensor.NewBatch(targets.N, d)
	for s := 0; s < steps; s++ {
		ev.GradLogPsiBatch(targets, ows)
		for k := 0; k < targets.N; k++ {
			m.Params().AXPY(0.2, ows.Sample(k))
		}
		InvalidateParams(m)
	}
	b := ConfigBatch{N: bs, Sites: targets.Sites, Bits: make([]int, bs*targets.Sites)}
	for k := 0; k < bs; k++ {
		copy(b.Row(k), targets.Row(r.Intn(targets.N)))
		for i, bit := range b.Row(k) {
			if r.Float64() < 0.15 {
				b.Row(k)[i] = 1 - bit
			}
		}
	}
	return b
}

// TestAddWeightedGradGrid pins the weighted-reduce contract over every
// family x worker count x batch size x site count, on fresh parameters with
// uniform bits and on pushed ("trained") parameters with biased bits: the
// destination must equal, in every bit, both the reference over a
// materialized B x d batch and the one-worker evaluator's, and a second call
// on the same evaluator must repeat it (no state survives in the scratch).
func TestAddWeightedGradGrid(t *testing.T) {
	for _, fam := range rowFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range siteCounts {
				for _, bs := range []int{1, 31, 32, 33, 100, 1000} {
					h := 5 + n
					if bs == 1000 {
						h = 6 // keeps the RNN's O(n h^2) rows cheap under -race
					}
					for _, trained := range []bool{false, true} {
						r := rng.New(uint64(7000 + 100*n + bs))
						m := fam.build(n, h, r)
						b := randomConfigs(bs, n, r)
						if trained {
							b = pushTowards(m, randomConfigs(3, n, r), 40, bs, r)
						}
						d := m.NumParams()
						w := make([]float64, bs)
						awkwardWeights(w, r)
						dst0 := awkwardDst(d, r)
						want := dst0.Clone()
						referenceWeightedGrad(m, d, b, w, want)
						var one tensor.Vector
						for _, workers := range []int{1, 2, 3, 8} {
							ev := m.NewBatchEvaluator(workers)
							for call := 0; call < 2; call++ {
								got := dst0.Clone()
								ev.AddWeightedGrad(b, w, got)
								id := fmt.Sprintf("n=%d B=%d trained=%v w=%d call %d", n, bs, trained, workers, call)
								if i := firstBitDiff(got, want); i >= 0 {
									t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", id, i,
										got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
								}
								if one == nil {
									one = got
								}
								if i := firstBitDiff(got, one); i >= 0 {
									t.Fatalf("%s: element %d differs from the one-worker evaluator", id, i)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestAddWeightedGradExercisesSkips guards the grid's point: on the pushed
// MADE the skips must actually fire (dead units, unset bits), and the
// fused path must have something non-trivial to get right (live units too).
func TestAddWeightedGradExercisesSkips(t *testing.T) {
	r := rng.New(11)
	m := NewMADE(19, 24, r)
	b := pushTowards(m, randomConfigs(3, 19, r), 40, 64, r)
	s := m.newScratch()
	var dead, live int
	for k := 0; k < b.N; k++ {
		m.forward(b.Row(k), s)
		for _, z := range s.Z1 {
			if z <= 0 {
				dead++
			} else {
				live++
			}
		}
	}
	if dead == 0 || live == 0 {
		t.Fatalf("pushed MADE has %d dead and %d live hidden activations; the grid needs both", dead, live)
	}
}

// FuzzAddWeightedGradEquivalence fuzzes the contract over MADE's fused
// backward (family even) and NADE's blockGrad path (odd): fuzzer-chosen n,
// h, B, worker count, parameter scale (large scales kill ReLU units and
// saturate conditionals), bit density and weights — both zeros, subnormals
// and negatives included — into a destination holding signed zeros. The
// W-worker and one-worker results must equal the materialized reference in
// every bit.
func FuzzAddWeightedGradEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint8(0), uint8(0), uint8(128), uint8(0))
	f.Add(uint64(7), uint8(6), uint8(11), uint16(32), uint8(1), uint8(40), uint8(30), uint8(0))
	f.Add(uint64(19), uint8(18), uint8(23), uint16(97), uint8(2), uint8(255), uint8(230), uint8(1))
	f.Add(uint64(12), uint8(1), uint8(3), uint16(299), uint8(7), uint8(90), uint8(255), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, hRaw uint8, bRaw uint16, wRaw, scale, density, family uint8) {
		n, h := 1+int(nRaw)%19, 1+int(hRaw)%24
		bs, workers := 1+int(bRaw)%300, 1+int(wRaw)%8
		r := rng.New(seed)
		var m rowFamily = NewMADE(n, h, r)
		if family%2 == 1 {
			m = NewNADE(n, h, r)
		}
		for i := range m.Params() {
			m.Params()[i] += float64(scale) / 32 * r.Norm()
		}
		InvalidateParams(m)
		b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
		for i := range b.Bits {
			if r.Intn(256) < int(density) {
				b.Bits[i] = 1
			}
		}
		d := m.NumParams()
		w := make([]float64, bs)
		awkwardWeights(w, r)
		dst0 := awkwardDst(d, r)
		want := dst0.Clone()
		referenceWeightedGrad(m, d, b, w, want)
		for _, wk := range []int{workers, 1} {
			got := dst0.Clone()
			m.NewBatchEvaluator(wk).AddWeightedGrad(b, w, got)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("family %d n=%d h=%d B=%d workers=%d: element %d = %v (%#x), reference %v (%#x)", family%2, n, h, bs, wk, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}

// BenchmarkAddWeightedGrad times the fused weighted backward against the
// slab path it replaced in the step (GradLogPsiBatch into 128 O-rows, then
// the fixed-block row sweep) at the train_maxcut_made shape.
func BenchmarkAddWeightedGrad(b *testing.B) {
	const n, h, bs = 64, 86, 1024
	r := rng.New(3)
	m := NewMADE(n, h, r)
	cfg := pushTowards(m, randomConfigs(8, n, r), 10, bs, r)
	d := m.NumParams()
	w := make([]float64, bs)
	r.FillNorm(w, 1.0/bs)
	g := tensor.NewVector(d)
	for _, workers := range []int{1, 2} {
		ev := m.NewBatchEvaluator(workers)
		b.Run(fmt.Sprintf("fused/w=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev.AddWeightedGrad(cfg, w, g)
			}
		})
	}
	b.Run("slab/w=1", func(b *testing.B) {
		ev := m.NewBatchEvaluator(1)
		slab, p := tensor.NewBatch(128, d), tensor.NewVector(d)
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < bs; lo += 128 {
				ev.GradLogPsiBatch(cfg.rows(lo, lo+128), slab)
				for k0 := 0; k0 < 128; k0 += GradBlockRows {
					blk := tensor.Batch{N: GradBlockRows, Dim: d, Data: slab.Data[k0*d : (k0+GradBlockRows)*d]}
					p.Fill(0)
					blk.AddWeightedRows(p, w[lo+k0:lo+k0+GradBlockRows], 0, d)
					g.Add(p)
				}
			}
		}
	})
}
