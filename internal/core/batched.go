package core

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// EvalMode is the type of NewBatchedEval's mode argument. It has the one
// value EvalAuto; the argument exists because the benchmark under bench/
// passes it.
type EvalMode int

// EvalAuto evaluates through the model's nn.BatchEvaluator — the only
// evaluation path the step and the serving layer have. Each family's
// NewBatchEvaluator returns whichever of its kernels the committed
// benchmark record shows faster (GEMMs for MADE and the RBM; for NADE the
// row adaptor over its scalar kernels, which is the scalar path itself),
// one per worker behind nn's single row split, so
// there is nothing here to choose. The package-level LocalEnergies is the
// scalar reference the path is pinned to.
const EvalAuto EvalMode = 0

// BatchedEval bundles a model's nn.BatchEvaluator with the reusable flip
// and base log-psi buffers the energy phase needs and the workspace of the
// distinct-row pass, so the steady-state training loop allocates nothing.
// Values produced through it are bitwise identical to the scalar
// LocalEnergies and per-row GradLogPsi and LogPsi (see the
// nn.BatchEvaluator contract).
//
// LocalEnergies, FillOws and LogPsi evaluate each distinct configuration of
// a batch once: every value they produce is a function of its row alone
// (the row-locality the nn.BatchEvaluator contract pins and the serving
// coalescer already relies on), so a duplicate row's value is a copy of its
// first occurrence's, byte for byte. A trained wavefunction is sharply
// peaked, so late in training most of a batch is duplicates (see
// docs/ARCHITECTURE.md, "Distinct rows"). AddWeightedGrad hands the
// evaluator the distinct rows and the map onto them, so the backward's
// weight-free part runs once per distinct row; its add stays per row, as
// the contract fixes one add per row and merging duplicates' weights would
// change the sum.
type BatchedEval struct {
	be   nn.BatchEvaluator
	bits []int
	amps []float64
	flip []float64
	uniq distinctRows
	// owsHead is FillOws's view of the first B' O-rows, kept here so that
	// handing it to the evaluator allocates nothing.
	owsHead tensor.Batch
}

// NewBatchedEval returns the evaluation wrapper for the model, or nil if
// the model does not implement nn.BatchEvaluatorBuilder (every shipped
// family does; the serving layer rejects a registration on nil). workers
// bounds the fan-out and never affects a produced value.
func NewBatchedEval(model nn.Wavefunction, _ EvalMode, workers int) *BatchedEval {
	bb, ok := model.(nn.BatchEvaluatorBuilder)
	if !ok {
		return nil
	}
	return NewBatchedEvalWith(bb.NewBatchEvaluator(workers))
}

// NewBatchedEvalWith wraps an explicitly constructed nn.BatchEvaluator —
// the entry point tests and benchmarks use to drive reference evaluators
// (MADE's full-recompute flip oracle) through the same energy reduction.
func NewBatchedEvalWith(be nn.BatchEvaluator) *BatchedEval {
	return &BatchedEval{be: be, uniq: distinctRows{seed: maphash.MakeSeed()}}
}

// LocalEnergies is the step's local-energy evaluation: one FlipLogPsiBatch
// call evaluates the B' x (F+1) flip super-batch of the batch's B' distinct
// rows, the per-sample reduction accumulates the flip terms in the same
// order as the scalar loop, and each duplicate row receives its first
// occurrence's energy. A diagonal-only Hamiltonian evaluates its diagonal
// once per distinct row the same way. Outputs are bitwise identical to the
// package-level LocalEnergies on the same batch. len(out) must be b.N.
func (e *BatchedEval) LocalEnergies(h hamiltonian.Hamiltonian, b *sampler.Batch, workers int, out []float64) {
	out = out[:b.N]
	u := e.uniq.find(b)
	e.localEnergies(h, u, workers, out)
	if u != b {
		e.uniq.spread(out)
	}
}

// localEnergies fills out[:u.N] with the local energies of u's rows; its
// flip workspace is sized for len(out) rows, the full batch, so it is grown
// once however many of them are distinct.
func (e *BatchedEval) localEnergies(h hamiltonian.Hamiltonian, u *sampler.Batch, workers int, out []float64) {
	flips := h.FlipTerms()
	if len(flips) == 0 {
		parallel.ForGrain(u.N, workers, diagGrainRows, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				out[k] = h.Diagonal(u.Row(k))
			}
		})
		return
	}
	nf := len(flips)
	if cap(e.bits) < nf {
		e.bits = make([]int, nf)
		e.amps = make([]float64, nf)
	}
	bits, amps := e.bits[:nf], e.amps[:nf]
	for f, ft := range flips {
		bits[f], amps[f] = ft.Bit, ft.Amp
	}
	if cap(e.flip) < len(out)*nf {
		e.flip = make([]float64, len(out)*nf)
	}
	delta := e.flip[:u.N*nf]
	// nil base: the energy reduction exponentiates the deltas directly, so
	// the evaluator may skip base-only work (the RBM's ln-cosh fold).
	e.be.FlipLogPsiBatch(*u, bits, nil, delta)
	// Per row the reduction is nf exponentials — cheap next to the GEMMs
	// above, so small batches stay inline instead of paying dispatch.
	parallel.ForGrain(u.N, workers, diagGrainRows, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			l := h.Diagonal(u.Row(k))
			row := delta[k*nf : (k+1)*nf]
			for f := range row {
				// The evaluator emits the flip DELTAS under the model's own
				// FlipCache convention, so exponentiating them reproduces the
				// scalar loop's exp(cache.Delta(bit)) bit for bit.
				l += float64(amps[f] * math.Exp(row[f]))
			}
			out[k] = l
		}
	})
}

// LogPsi fills out[k] = log|psi(row k)| through the batched GEMM path,
// once per distinct row — bitwise identical to per-row scalar model.LogPsi
// calls by the nn.BatchEvaluator contract. It is the shared amplitude
// dispatch the serving layer folds coalesced cross-request batches through:
// because every row's value is pinned to the scalar LogPsi of that row
// alone, the result for a given configuration is invariant to which other
// rows share the batch, which is what makes request coalescing — and the
// distinct-row pass — invisible in served values. len(out) must be b.N.
func (e *BatchedEval) LogPsi(b *sampler.Batch, out []float64) {
	if len(out) != b.N {
		panic("core: LogPsi output length mismatch")
	}
	u := e.uniq.find(b)
	e.be.LogPsiBatch(*u, out[:u.N])
	if u != b {
		e.uniq.spread(out)
	}
}

// FillOws fills ows row k with grad log|psi(row k)| — the O_k rows of the
// gradient estimator and the Fisher operator — bitwise the per-row scalar
// GradLogPsi. The evaluator writes rows [0, B') for the batch's B' distinct
// rows and each duplicate row is then a copy of its first occurrence's.
// ows must be b.N x NumParams.
func (e *BatchedEval) FillOws(b *sampler.Batch, ows *tensor.Batch) {
	if ows.N != b.N {
		panic("core: FillOws ows shape mismatch")
	}
	u := e.uniq.find(b)
	if u == b {
		e.be.GradLogPsiBatch(*b, ows)
		return
	}
	e.owsHead = tensor.Batch{N: u.N, Dim: ows.Dim, Data: ows.Data[:u.N*ows.Dim]}
	e.be.GradLogPsiBatch(*u, &e.owsHead)
	e.uniq.spreadRows(ows)
}

// AddWeightedGrad accumulates dst += sum_k w[k] * grad log|psi(row k)|, the
// REINFORCE gradient, without the O-rows: bitwise FillOws into a B x d batch
// followed by AddWeightedRows, at every worker count (the nn.BatchEvaluator
// weighted-reduce contract). dst is NOT zeroed first. The evaluator gets
// the batch's distinct rows and the map of every row onto them, so what
// does not depend on a row's weight is computed once per distinct row;
// every row, duplicates included, still takes its own add.
func (e *BatchedEval) AddWeightedGrad(b *sampler.Batch, w []float64, dst tensor.Vector) {
	u := e.uniq.find(b)
	var of []int
	if u != b {
		of = e.uniq.of
	}
	e.be.AddWeightedGrad(*u, of, w, dst)
}

// distinctRows is the workspace of the distinct-row pass: an
// open-addressing hash table over a batch's rows, every slice grown once
// and reused.
//
// Rows are matched by comparing them exactly; the hash only picks the probe
// slot, so a collision costs a comparison and never a wrong match. The hash
// is maphash under a seed drawn once per BatchedEval, so rows a caller
// chooses (vqmcd evaluates request bodies through this pass) cannot steer
// probe sequences: the pass is O(B·n) expected whatever the rows are.
type distinctRows struct {
	seed maphash.Seed
	// of[k] is the compact index of batch row k. Compact rows are numbered
	// in first-occurrence order, so of[k] <= k.
	of []int
	// first[j] is the batch row where compact row j first occurs and
	// sums[j] its hash.
	first []int
	sums  []uint64
	slots []int32 // compact index + 1 per table slot; 0 is empty
	key   []byte
	rows  sampler.Batch // the compact batch
}

// find returns the batch to evaluate in b's place: b itself when every row
// is distinct, otherwise the compact batch of b's distinct rows in
// first-occurrence order. Either way it records of.
func (d *distinctRows) find(b *sampler.Batch) *sampler.Batch {
	n := b.Sites
	size := 1
	for size < 2*b.N {
		size <<= 1
	}
	if cap(d.of) < b.N {
		d.of = make([]int, b.N)
		d.first = make([]int, b.N)
		d.sums = make([]uint64, b.N)
		d.slots = make([]int32, size)
	}
	d.of = d.of[:b.N]
	slots, mask := d.slots[:size], uint64(size-1)
	clear(slots)
	nu := 0
	for k := range b.N {
		row := b.Row(k)
		h := d.hash(row)
		for s := h & mask; ; s = (s + 1) & mask {
			j := int(slots[s]) - 1
			if j < 0 {
				slots[s] = int32(nu + 1)
				d.first[nu], d.sums[nu], d.of[k] = k, h, nu
				nu++
				break
			}
			if d.sums[j] == h && slices.Equal(b.Row(d.first[j]), row) {
				d.of[k] = j
				break
			}
		}
	}
	if nu == b.N {
		return b
	}
	if cap(d.rows.Bits) < nu*n {
		// Grown when a batch first repeats a row: an all-distinct batch
		// needs no compact copy.
		d.rows.Bits = make([]int, b.N*n)
	}
	d.rows = sampler.Batch{N: nu, Sites: n, Bits: d.rows.Bits[:nu*n]}
	for j, k := range d.first[:nu] {
		copy(d.rows.Row(j), b.Row(k))
	}
	return &d.rows
}

// hash keys a row by its entries, eight bytes each: a key no two different
// rows share, whatever values they hold.
func (d *distinctRows) hash(row []int) uint64 {
	key := d.key[:0]
	for _, v := range row {
		key = binary.LittleEndian.AppendUint64(key, uint64(v))
	}
	d.key = key
	return maphash.Bytes(d.seed, key)
}

// spread copies the compact rows' values, out[:B'], out to every batch row:
// out[k] = out[of[k]] for k from B-1 down to 0. Since of[k] <= k and step k
// writes only out[k], the source of every copy still holds its compact
// value when it is read.
func (d *distinctRows) spread(out []float64) {
	for k := len(out) - 1; k >= 0; k-- {
		out[k] = out[d.of[k]]
	}
}

// spreadRows is spread for the rows of ows.
func (d *distinctRows) spreadRows(ows *tensor.Batch) {
	for k := ows.N - 1; k >= 0; k-- {
		if j := d.of[k]; j != k {
			copy(ows.Sample(k), ows.Sample(j))
		}
	}
}

// diagGrainRows is the minimum rows per parallel range for the cheap
// per-row loops (diagonal-only energies, flip-delta exponentiation): below
// it, dispatching a worker costs more than its rows. Grain affects only how
// finely rows are partitioned, never per-row arithmetic, so results stay
// bitwise identical at every worker count.
const diagGrainRows = 64

// GradBlockSize is the fixed granule of the weighted row-sum reduction: rows
// are reduced into per-block partials (each block owned by exactly one
// worker, accumulated in ascending row order) and the partials are folded
// serially in ascending block order. The block boundary depends only on
// the row index — never on the worker count — so the reduced vector is
// bitwise invariant to the worker count, the property the distributed
// trainer's replica x worker bit-identity rests on. It is nn.GradBlockRows,
// the granule of the evaluators' fused form of the same reduction.
const GradBlockSize = nn.GradBlockRows

// GradBlocks returns the partial count AddWeightedRows needs for n rows
// (callers size the parts workspace once with it).
func GradBlocks(n int) int { return (n + GradBlockSize - 1) / GradBlockSize }

// AddWeightedRows accumulates dst += sum_k w[k] * rows.Sample(k) using the
// fixed-block scheme above, fanning block partials across up to workers
// goroutines. parts must be a GradBlocks(rows.N) x rows.Dim workspace; its
// contents are overwritten. dst is NOT zeroed first. Inside a block, and in
// the fold of the partials, the rows go through tensor.Batch.AddWeightedRows
// four at a time (eight quads per full block): each element still takes its
// terms one add at a time in ascending row order, so the bytes are those of
// one AXPY per row.
func AddWeightedRows(dst tensor.Vector, rows *tensor.Batch, w []float64, parts *tensor.Batch, workers int) {
	nb, d := GradBlocks(rows.N), rows.Dim
	if parts.N < nb || parts.Dim != d {
		panic("core: AddWeightedRows parts workspace too small")
	}
	parallel.For(nb, workers, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			p := parts.Sample(bi)
			p.Fill(0)
			k0, k1 := bi*GradBlockSize, min((bi+1)*GradBlockSize, rows.N)
			blk := tensor.Batch{N: k1 - k0, Dim: d, Data: rows.Data[k0*d : k1*d]}
			blk.AddWeightedRows(p, w[k0:k1], 0, d)
		}
	})
	foldParts(dst, parts, nb)
}

// foldParts adds the first nb block partials to dst in ascending block order.
func foldParts(dst tensor.Vector, parts *tensor.Batch, nb int) {
	folded := tensor.Batch{N: nb, Dim: parts.Dim, Data: parts.Data[:nb*parts.Dim]}
	folded.AddWeightedRows(dst, nil, 0, parts.Dim)
}
