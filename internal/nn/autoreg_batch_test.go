package nn

import (
	"fmt"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// batchModel is the full batched contract the autoregressive families share;
// the table-driven suites below run every property over each family through
// this one interface so adding a model is a row, not a file.
type batchModel interface {
	Wavefunction
	CacheBuilder
	GradEvaluatorBuilder
	BatchEvaluatorBuilder
	BatchAncestralBuilder
	NewIncrementalEvaluator() ConditionalEvaluator
}

// autoregFamilies enumerates the autoregressive model families under the
// batched bit-identity doctrine. MADE answers NewBatchEvaluator with GEMM
// kernels, NADE with the row adaptor over its scalar kernels; both answer
// NewBatchAncestralSampler with the row adaptor. The suites do not care
// which.
var autoregFamilies = []struct {
	name  string
	build func(n, h int, r *rng.Rand) batchModel
}{
	{"MADE", func(n, h int, r *rng.Rand) batchModel { return NewMADE(n, h, r) }},
	{"NADE", func(n, h int, r *rng.Rand) batchModel { return NewNADE(n, h, r) }},
}

// TestAutoregBatchForwardBitIdentical: LogPsiBatch must equal per-row LogPsi
// and GradLogPsiBatch per-row GradLogPsi with exact ==, for every family x
// batch size x worker count x site count.
func TestAutoregBatchForwardBitIdentical(t *testing.T) {
	for _, fam := range autoregFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range siteCounts {
				m := fam.build(n, 6+n/2, rng.New(uint64(500+n)))
				d := m.NumParams()
				for _, workers := range workerCounts {
					e := m.NewBatchEvaluator(workers)
					for _, bs := range batchSizes {
						b := randomConfigs(bs, n, rng.New(uint64(29*bs+n)))
						out := make([]float64, bs)
						e.LogPsiBatch(b, out)
						ows := tensor.NewBatch(bs, d)
						e.GradLogPsiBatch(b, ows)
						want := tensor.NewVector(d)
						for k := 0; k < bs; k++ {
							if lp := m.LogPsi(b.Row(k)); out[k] != lp {
								t.Fatalf("n=%d w=%d B=%d row %d: batched %v != scalar %v",
									n, workers, bs, k, out[k], lp)
							}
							m.GradLogPsi(b.Row(k), want)
							row := ows.Sample(k)
							for i := range want {
								if row[i] != want[i] {
									t.Fatalf("n=%d w=%d B=%d row %d param %d: batched grad %v != scalar %v",
										n, workers, bs, k, i, row[i], want[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestAutoregFlipBatchBitIdentical is the tentpole acceptance matrix:
// FlipLogPsiBatch must match the scalar FlipCache (base and deltas), a
// fresh LogPsi (base) AND the full-recompute reference (recomputeFlips:
// LogPsiBatch of every flipped row minus the base) byte for byte, over B in
// {1,3,64} x workers in {1,2,5} x n in {1,2,7,19}, for every
// autoregressive family — the property core.LocalEnergies' batched
// dispatch relies on.
func TestAutoregFlipBatchBitIdentical(t *testing.T) {
	for _, fam := range autoregFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range siteCounts {
				m := fam.build(n, 4+n, rng.New(uint64(600+n)))
				for _, workers := range workerCounts {
					tail := m.NewBatchEvaluator(workers)
					full := recomputeFlips{m.NewBatchEvaluator(workers)}
					for _, bs := range batchSizes {
						b := randomConfigs(bs, n, rng.New(uint64(31*bs+n)))
						what := fmt.Sprintf("n=%d w=%d B=%d", n, workers, bs)
						base, delta := checkFlipBatch(t, what, m, tail, b)
						baseF, deltaF := make([]float64, bs), make([]float64, bs*n)
						full.FlipLogPsiBatch(b, allFlips(n), baseF, deltaF)
						for k := range base {
							if want := m.LogPsi(b.Row(k)); base[k] != want {
								t.Fatalf("%s row %d: batched base %v != fresh LogPsi %v", what, k, base[k], want)
							}
						}
						for i := range delta {
							if k := i / n; base[k] != baseF[k] || delta[i] != deltaF[i] {
								t.Fatalf("%s row %d flip %d: tail (%v, %v) != oracle (%v, %v)",
									what, k, i%n, base[k], delta[i], baseF[k], deltaF[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestAutoregFlipBatchRandomSites pins the tail-only flip paths against
// fresh LogPsi for RANDOM flip-site subsets (repeats included), nil base
// included — the QUBO/mixed-Hamiltonian pattern.
func TestAutoregFlipBatchRandomSites(t *testing.T) {
	for _, fam := range autoregFamilies {
		t.Run(fam.name, func(t *testing.T) {
			r := rng.New(43)
			for _, n := range siteCounts {
				m := fam.build(n, 6+n, r.Split())
				e := m.NewBatchEvaluator(3)
				y := make([]int, n)
				for _, bs := range batchSizes {
					nf := 1 + r.Intn(n)
					flips := make([]int, nf)
					for f := range flips {
						flips[f] = r.Intn(n)
					}
					b := randomConfigs(bs, n, r.Split())
					base := make([]float64, bs)
					delta := make([]float64, bs*nf)
					e.FlipLogPsiBatch(b, flips, base, delta)
					// nil base must leave the deltas unchanged.
					delta2 := make([]float64, bs*nf)
					e.FlipLogPsiBatch(b, flips, nil, delta2)
					for i := range delta {
						if delta[i] != delta2[i] {
							t.Fatalf("n=%d B=%d: nil-base delta %d differs: %v != %v",
								n, bs, i, delta2[i], delta[i])
						}
					}
					for k := 0; k < bs; k++ {
						baseWant := m.LogPsi(b.Row(k))
						if base[k] != baseWant {
							t.Fatalf("n=%d B=%d row %d: base %v != fresh %v", n, bs, k, base[k], baseWant)
						}
						for f, bit := range flips {
							copy(y, b.Row(k))
							y[bit] = 1 - y[bit]
							want := m.LogPsi(y) - baseWant
							if delta[k*nf+f] != want {
								t.Fatalf("n=%d B=%d row %d flip site %d: delta %v != fresh %v",
									n, bs, k, bit, delta[k*nf+f], want)
							}
						}
					}
				}
			}
		})
	}
}

// TestAutoregBatchAncestralBitIdentical: fed the same uniforms, each
// family's batched sampler (the row adaptor, at every worker count) must
// produce exactly the bits of its scalar incremental evaluator walked
// sample-major.
func TestAutoregBatchAncestralBitIdentical(t *testing.T) {
	for _, fam := range autoregFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range siteCounts {
				m := fam.build(n, 6+n, rng.New(uint64(700+n)))
				bsmp := m.NewBatchAncestralSampler()
				for _, bs := range batchSizes {
					u := make([]float64, bs*n)
					rng.New(uint64(37*bs+n)).FillUniform(u, 0, 1)
					want := make([]int, bs*n)
					ev := m.NewIncrementalEvaluator()
					for k := 0; k < bs; k++ {
						ev.Reset()
						for i := 0; i < n; i++ {
							bit := 0
							if u[k*n+i] < ev.Prob(i) {
								bit = 1
							}
							want[k*n+i] = bit
							ev.Fix(i, bit)
						}
					}
					for _, workers := range workerCounts {
						b := ConfigBatch{N: bs, Sites: n, Bits: make([]int, bs*n)}
						bsmp.Sample(b, u, workers)
						for i := range want {
							if b.Bits[i] != want[i] {
								t.Fatalf("n=%d B=%d w=%d: bit %d = %d, scalar %d",
									n, bs, workers, i, b.Bits[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestAutoregTailFlipCacheExactRegression pins every family's tail-only
// flip cache against fresh LogPsi with exact == across arbitrary
// interleavings of Flip, Delta and Reset: evaluating only the sites j >= b
// a flip of bit b can move changes nothing but the work done.
func TestAutoregTailFlipCacheExactRegression(t *testing.T) {
	for _, fam := range autoregFamilies {
		t.Run(fam.name, func(t *testing.T) {
			r := rng.New(11)
			for _, n := range siteCounts {
				m := fam.build(n, 5+n, r.Split())
				x := make([]int, n)
				r.FillBits(x)
				c := m.NewFlipCache(x).(tailFlipCache)
				y := make([]int, n)
				for trial := 0; trial < 200; trial++ {
					if c.LogPsi() != m.LogPsi(c.State()) {
						t.Fatalf("n=%d trial %d: cache logPsi %v != fresh %v",
							n, trial, c.LogPsi(), m.LogPsi(c.State()))
					}
					bit := r.Intn(n)
					copy(y, c.State())
					y[bit] = 1 - y[bit]
					if got, want := c.FlipLogPsi(bit), m.LogPsi(y); got != want {
						t.Fatalf("n=%d trial %d: FlipLogPsi(%d) = %v != fresh %v", n, trial, bit, got, want)
					}
					if got, want := c.Delta(bit), m.LogPsi(y)-c.LogPsi(); got != want {
						t.Fatalf("n=%d trial %d: Delta(%d) = %v != fresh difference %v", n, trial, bit, got, want)
					}
					switch trial % 3 {
					case 0:
						c.Flip(bit)
					case 1:
						r.FillBits(y)
						c.Reset(y)
					}
				}
			}
		})
	}
}

// rowFamilies is the input table of the row-evaluator grid: every family
// with scalar kernels, the RBM included so the adaptor is covered on a
// non-autoregressive (incremental ln-cosh) FlipCache.
type rowFamily interface {
	rowModel
	BatchEvaluatorBuilder
}

var rowFamilies = []struct {
	name  string
	build func(n, h int, r *rng.Rand) rowFamily
}{
	{"MADE", func(n, h int, r *rng.Rand) rowFamily { return NewMADE(n, h, r) }},
	{"NADE", func(n, h int, r *rng.Rand) rowFamily { return NewNADE(n, h, r) }},
	{"RBM", func(n, h int, r *rng.Rand) rowFamily { return NewRBM(n, h, r) }},
}

// TestRowEvaluatorGrid pins the one parallel layer, splitRows, over every
// family and both kinds of evaluator it fronts — the family's own
// NewBatchEvaluator (GEMM kernels for MADE and the RBM, the row adaptor for
// NADE) and the row adaptor itself — on the W x B grid: one row
// (fewer rows than workers), ragged shares, and a batch that takes each
// sub-evaluator through more than one flip slab. Every output must equal,
// with exact ==, both the one-worker evaluator's and the scalar
// GradEvaluator / FlipCache values, with and without a base slice, for the
// full flip set (descending: order must not matter) and a random one.
func TestRowEvaluatorGrid(t *testing.T) {
	for _, fam := range rowFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for _, n := range siteCounts {
				r := rng.New(uint64(900 + n))
				full := make([]int, n)
				for i := range full {
					full[i] = n - 1 - i
				}
				some := make([]int, 1+r.Intn(n))
				for i := range some {
					some[i] = r.Intn(n)
				}
				for _, bs := range []int{1, 7, 64, 1000} {
					h := 5 + n
					if bs == 1000 {
						// The multi-slab batch runs once, at the largest n (a
						// flip slab holds 4096/(n+1) rows whatever h is) and
						// a narrow hidden layer, which keeps the scalar
						// reference cheap under the race detector.
						if n != siteCounts[len(siteCounts)-1] {
							continue
						}
						h = 4
					}
					m := fam.build(n, h, rng.New(uint64(800+n)))
					ref := scalarRowOutputs(m, randomConfigs(bs, n, rng.New(uint64(41*bs+n))), full, some)
					kinds := map[string]func(workers int) BatchEvaluator{"family": m.NewBatchEvaluator}
					if _, isAdaptor := m.NewBatchEvaluator(1).(*rowEvaluator); !isAdaptor {
						kinds["adaptor"] = func(w int) BatchEvaluator {
							return splitRows(m, w, func() blockEvaluator { return newRowEvaluator(m) })
						}
					}
					for kind, build := range kinds {
						var one *rowOutputs
						for _, workers := range []int{1, 2, 3, 8} {
							got := batchedRowOutputs(m, build(workers), ref.b, full, some)
							if workers == 1 {
								one = got
							}
							if at := got.diff(one); at != "" {
								t.Fatalf("%s n=%d B=%d w=%d: %s differs from the one-worker evaluator", kind, n, bs, workers, at)
							}
							if at := got.diff(ref); at != "" {
								t.Fatalf("%s n=%d B=%d w=%d: %s differs from the scalar kernels", kind, n, bs, workers, at)
							}
						}
					}
				}
			}
		})
	}
}

// rowOutputs is everything a BatchEvaluator computes for one batch and two
// flip sets; the nil-base calls fill deltas only.
type rowOutputs struct {
	b               ConfigBatch
	logPsi          []float64
	grads           *tensor.Batch
	base            [2][]float64
	delta, deltaNil [2][]float64
}

func newRowOutputs(m Wavefunction, b ConfigBatch, flipSets [2][]int) *rowOutputs {
	o := &rowOutputs{b: b, logPsi: make([]float64, b.N), grads: tensor.NewBatch(b.N, m.NumParams())}
	for i, flips := range flipSets {
		o.base[i] = make([]float64, b.N)
		o.delta[i] = make([]float64, b.N*len(flips))
		o.deltaNil[i] = make([]float64, b.N*len(flips))
	}
	return o
}

// scalarRowOutputs computes the reference through the scalar kernels alone.
func scalarRowOutputs(m rowModel, b ConfigBatch, full, some []int) *rowOutputs {
	o := newRowOutputs(m, b, [2][]int{full, some})
	cache := m.NewFlipCache(b.Row(0))
	for k := 0; k < b.N; k++ {
		o.logPsi[k] = m.LogPsi(b.Row(k))
		m.GradLogPsi(b.Row(k), o.grads.Sample(k))
		cache.Reset(b.Row(k))
		for i, flips := range [2][]int{full, some} {
			o.base[i][k] = cache.LogPsi()
			for f, bit := range flips {
				o.delta[i][k*len(flips)+f] = cache.Delta(bit)
			}
			copy(o.deltaNil[i][k*len(flips):], o.delta[i][k*len(flips):(k+1)*len(flips)])
		}
	}
	return o
}

func batchedRowOutputs(m Wavefunction, e BatchEvaluator, b ConfigBatch, full, some []int) *rowOutputs {
	o := newRowOutputs(m, b, [2][]int{full, some})
	e.LogPsiBatch(b, o.logPsi)
	e.GradLogPsiBatch(b, o.grads)
	for i, flips := range [2][]int{full, some} {
		e.FlipLogPsiBatch(b, flips, o.base[i], o.delta[i])
		e.FlipLogPsiBatch(b, flips, nil, o.deltaNil[i])
	}
	return o
}

// diff names the first output where o and want differ in a bit, or "".
func (o *rowOutputs) diff(want *rowOutputs) string {
	fields := []struct {
		name      string
		got, want []float64
	}{
		{"logpsi", o.logPsi, want.logPsi}, {"grad", o.grads.Data, want.grads.Data},
		{"full-flip base", o.base[0], want.base[0]}, {"full-flip delta", o.delta[0], want.delta[0]},
		{"full-flip delta (nil base)", o.deltaNil[0], want.deltaNil[0]},
		{"random-flip base", o.base[1], want.base[1]}, {"random-flip delta", o.delta[1], want.delta[1]},
		{"random-flip delta (nil base)", o.deltaNil[1], want.deltaNil[1]},
	}
	for _, f := range fields {
		for i := range f.want {
			if f.got[i] != f.want[i] {
				return fmt.Sprintf("%s[%d] %v != %v", f.name, i, f.got[i], f.want[i])
			}
		}
	}
	return ""
}

// TestRowAdaptorsAllocateNothingPerRow: the adaptors build their per-worker
// caches and evaluators once, so a warmed call allocates only the handful
// of closures its one parallel dispatch costs — the same count at 8 rows
// and at 64, where a per-row or per-call buffer would show.
func TestRowAdaptorsAllocateNothingPerRow(t *testing.T) {
	const n, h = 9, 12
	flips := []int{0, 4, 8}
	fams := map[string]batchModel{"nade": NewNADE(n, h, rng.New(93)), "made": NewMADE(n, h, rng.New(94))}
	rows, smps := map[string]BatchEvaluator{}, map[string]BatchAncestralSampler{}
	for name, m := range fams {
		if name != "made" { // MADE's evaluator is its GEMM kernel, not the adaptor
			rows[name] = m.NewBatchEvaluator(1)
		}
		smps[name] = m.NewBatchAncestralSampler()
	}
	allocs := func(bs int) map[string]float64 {
		b := randomConfigs(bs, n, rng.New(91))
		delta, out := make([]float64, bs*len(flips)), make([]float64, bs)
		u := make([]float64, bs*n)
		rng.New(92).FillUniform(u, 0, 1)
		calls := map[string]func(){}
		for name, row := range rows {
			ows := tensor.NewBatch(bs, fams[name].NumParams())
			calls[name+" flips"] = func() { row.FlipLogPsiBatch(b, flips, nil, delta) }
			calls[name+" logpsi"] = func() { row.LogPsiBatch(b, out) }
			calls[name+" grads"] = func() { row.GradLogPsiBatch(b, ows) }
		}
		for name, smp := range smps {
			calls[name+" sampler"] = func() { smp.Sample(b, u, 1) }
		}
		got := map[string]float64{}
		for name, call := range calls {
			call() // build the lazily created sampler evaluators
			got[name] = testing.AllocsPerRun(10, call)
		}
		return got
	}
	small, large := allocs(8), allocs(64)
	for name, a := range small {
		if a != large[name] || a > 6 {
			t.Errorf("%s: %v allocations per call at 8 rows, %v at 64; want equal and at most the dispatch closures", name, a, large[name])
		}
	}
}

// TestNADENoDerivedState: NADE keeps no parameter-derived caches, so an
// evaluator built BEFORE an in-place parameter write serves the new
// parameters with no InvalidateParams in between — what NADE's deleted
// V^T/W^T layouts needed a version counter for holds by construction.
func TestNADENoDerivedState(t *testing.T) {
	n := 6
	m := NewNADE(n, 8, rng.New(15))
	e := m.NewBatchEvaluator(2)
	b := randomConfigs(4, n, rng.New(16))
	out := make([]float64, 4)
	e.LogPsiBatch(b, out)
	before := append([]float64(nil), out...)

	m.Params()[0] += 0.125
	e.LogPsiBatch(b, out)
	moved := false
	for k := 0; k < 4; k++ {
		if want := m.LogPsi(b.Row(k)); out[k] != want {
			t.Fatalf("after in-place write row %d: batched %v != scalar %v", k, out[k], want)
		}
		moved = moved || out[k] != before[k]
	}
	if !moved {
		t.Fatal("parameter write changed no amplitude; the test has no teeth")
	}
}

// FuzzSeqPrefixResume fuzzes the prefix-resume invariant NADE's tail-only
// flip cache rests on: for any configuration and flip site, the
// cache's resumed FlipLogPsi must equal a fresh LogPsi of the flipped
// configuration with exact ==, and committing the flip (Flip, i.e.
// rebase(bit)) must leave every record of the cache — states,
// pre-activations, prefix sums — exactly as a Reset on the flipped
// configuration builds them.
func FuzzSeqPrefixResume(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(0))
	f.Add(uint64(7), uint64(0x5a5a5a5a), uint8(3))
	f.Add(uint64(19), uint64(0xffffffffffffffff), uint8(18))
	f.Add(uint64(12), uint64(0x0f0f), uint8(11))
	f.Fuzz(func(t *testing.T, seed, xbits uint64, bitRaw uint8) {
		n := 1 + int(seed%19)
		bit := int(bitRaw) % n
		m := NewNADE(n, 5+n/2, rng.New(seed))
		x := make([]int, n)
		for i := range x {
			x[i] = int(xbits>>uint(i)) & 1
		}
		c := m.NewFlipCache(x).(*seqFlipCache)
		y := make([]int, n)
		copy(y, x)
		y[bit] = 1 - y[bit]
		if got, want := c.FlipLogPsi(bit), m.LogPsi(y); got != want {
			t.Fatalf("n=%d bit=%d: FlipLogPsi %v != fresh %v", n, bit, got, want)
		}
		c.Flip(bit)
		if got, want := c.LogPsi(), m.LogPsi(y); got != want {
			t.Fatalf("n=%d bit=%d: post-Flip LogPsi %v != fresh %v", n, bit, got, want)
		}
		fresh := m.NewFlipCache(x).(*seqFlipCache)
		fresh.Reset(y)
		for i := 0; i < n; i++ {
			if c.z[i] != fresh.z[i] || c.p[i+1] != fresh.p[i+1] {
				t.Fatalf("n=%d bit=%d site %d: rebased z, p = %v, %v; Reset builds %v, %v", n, bit, i, c.z[i], c.p[i+1], fresh.z[i], fresh.p[i+1])
			}
		}
		for i, v := range fresh.s.States.Data {
			if c.s.States.Data[i] != v {
				t.Fatalf("n=%d bit=%d: rebased state element %d = %v; Reset builds %v", n, bit, i, c.s.States.Data[i], v)
			}
		}
	})
}
