package nn

import (
	"math"
	"sync"

	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// seqCell is what differs between the two sequential autoregressive
// families (NADE, the RNN): both fold one h-wide state over the sites in
// ascending order, site i's conditional reading the state produced by bits
// < i, and the cell says how that state starts, what a site reads off it,
// how a bit advances it, and how a gradient flows back through it.
type seqCell interface {
	// initState writes the state the first site's conditional reads.
	initState(s tensor.Vector)
	// siteZ is site i's conditional pre-activation on state s.
	siteZ(s tensor.Vector, i int) float64
	// consume advances s past site i holding bit; pre is h-wide workspace.
	consume(s, pre tensor.Vector, i, bit int)
	// backward adds d log pi(x) / d theta into the zeroed grad. sc.States
	// row i holds the state site i read and sc.dS arrives zeroed.
	backward(x []int, grad tensor.Vector, sc *SeqScratch)
}

// seqModel is the skeleton NADE and RNNWavefunction embed: everything about
// a sequential autoregressive wavefunction except its cell. Every kernel
// reads theta through the cell's layer views, so the families keep no
// parameter-derived state: an in-place parameter update is visible to every
// evaluator at once and there is nothing to invalidate or pre-warm.
type seqModel struct {
	n, h  int
	theta tensor.Vector
	cell  seqCell
	// pool recycles scratch for the convenience entry points (LogProb,
	// Conditional, GradLogPsi), which would otherwise allocate per call in
	// any loop driving the model through the interface types.
	pool sync.Pool
}

// SeqScratch holds one worker's evaluation buffers for a NADE or an RNN.
type SeqScratch struct {
	S        tensor.Vector  // running state (h)
	Pre      tensor.Vector  // cell workspace (h): the RNN's pre-activation
	States   *tensor.Matrix // n x h: row i is the state site i's conditional reads
	dS, dPre tensor.Vector  // backward workspaces (h)
}

// NewScratch allocates evaluation buffers for one worker.
func (m *seqModel) NewScratch() *SeqScratch {
	return &SeqScratch{
		S:      tensor.NewVector(m.h),
		Pre:    tensor.NewVector(m.h),
		States: tensor.NewMatrix(m.n, m.h),
		dS:     tensor.NewVector(m.h),
		dPre:   tensor.NewVector(m.h),
	}
}

// pooled runs f on a scratch borrowed from the model's pool
// (concurrency-safe; allocation-free in steady state).
func (m *seqModel) pooled(f func(s *SeqScratch)) {
	s, ok := m.pool.Get().(*SeqScratch)
	if !ok {
		s = m.NewScratch()
	}
	f(s)
	m.pool.Put(s)
}

// advance moves s.S past site i holding bit. Nothing reads the state past
// the last site, so it is not advanced there.
func (m *seqModel) advance(s *SeqScratch, i, bit int) {
	if i < m.n-1 {
		m.cell.consume(s.S, s.Pre, i, bit)
	}
}

// NumSites implements Wavefunction.
func (m *seqModel) NumSites() int { return m.n }

// Hidden returns the hidden width h.
func (m *seqModel) Hidden() int { return m.h }

// NumParams implements Wavefunction.
func (m *seqModel) NumParams() int { return len(m.theta) }

// Params implements Wavefunction.
func (m *seqModel) Params() tensor.Vector { return m.theta }

// LogProbScratch evaluates log pi(x): one siteZ and one advance per site.
func (m *seqModel) LogProbScratch(x []int, s *SeqScratch) float64 {
	c := m.cell
	c.initState(s.S)
	var lp float64
	for i, b := range x {
		lp += condTerm(c.siteZ(s.S, i), b)
		m.advance(s, i, b)
	}
	return lp
}

// LogProb implements Normalized. It borrows pooled scratch, so repeated
// calls do not allocate; hot paths with a per-worker scratch should still
// prefer LogProbScratch.
func (m *seqModel) LogProb(x []int) (lp float64) {
	m.pooled(func(s *SeqScratch) { lp = m.LogProbScratch(x, s) })
	return lp
}

// LogPsi implements Wavefunction: psi = sqrt(pi).
func (m *seqModel) LogPsi(x []int) float64 { return 0.5 * m.LogProb(x) }

// LogPsiScratch is the buffer-reusing variant of LogPsi.
func (m *seqModel) LogPsiScratch(x []int, s *SeqScratch) float64 {
	return 0.5 * m.LogProbScratch(x, s)
}

// Conditional implements Autoregressive: P(x_i = 1 | x_<i). It borrows
// pooled scratch; hot paths should use ConditionalScratch.
func (m *seqModel) Conditional(x []int, i int) (p float64) {
	m.pooled(func(s *SeqScratch) { p = m.ConditionalScratch(x, i, s) })
	return p
}

// ConditionalScratch is the buffer-reusing variant of Conditional.
func (m *seqModel) ConditionalScratch(x []int, i int, s *SeqScratch) float64 {
	c := m.cell
	c.initState(s.S)
	for j := 0; j < i; j++ {
		m.advance(s, j, x[j])
	}
	return 1 / (1 + math.Exp(-c.siteZ(s.S, i)))
}

// GradLogPsiScratch overwrites grad with d log psi / d theta: a forward
// pass recording the state every site read, then the cell's backward
// through those records, halved because psi = sqrt(pi).
func (m *seqModel) GradLogPsiScratch(x []int, grad tensor.Vector, s *SeqScratch) {
	if len(grad) != m.NumParams() {
		panic("nn: gradient buffer has wrong length")
	}
	clear(grad)
	c := m.cell
	c.initState(s.S)
	for i, b := range x {
		copy(s.States.Row(i), s.S)
		m.advance(s, i, b)
	}
	clear(s.dS)
	c.backward(x, grad, s)
	grad.Scale(0.5)
}

// GradLogPsi implements Wavefunction. It borrows pooled scratch; hot paths
// use NewGradEvaluator's per-worker instances instead.
func (m *seqModel) GradLogPsi(x []int, grad tensor.Vector) {
	m.pooled(func(s *SeqScratch) { m.GradLogPsiScratch(x, grad, s) })
}

// NewGradEvaluator implements GradEvaluatorBuilder.
func (m *seqModel) NewGradEvaluator() GradEvaluator {
	return &seqGradEvaluator{m: m, s: m.NewScratch()}
}

type seqGradEvaluator struct {
	m *seqModel
	s *SeqScratch
}

func (e *seqGradEvaluator) GradLogPsi(x []int, grad tensor.Vector) {
	e.m.GradLogPsiScratch(x, grad, e.s)
}

func (e *seqGradEvaluator) LogPsi(x []int) float64 { return e.m.LogPsiScratch(x, e.s) }

// NewFlipCache implements CacheBuilder with a tail-only TailFlipCache: the
// state consumes sites in ascending order, so a flip of bit b leaves the
// state every site i <= b reads — and therefore site b's conditional
// pre-activation z_b — bitwise untouched. The cache records, per site, the
// state snapshot, the pre-activation and the log-probability prefix sums;
// FlipLogPsi resumes the chain and the fold from site b, O(n-b) cell steps
// instead of the O(n) of a full recompute, producing flipped log-psi values
// bitwise identical to a fresh LogPsi.
func (m *seqModel) NewFlipCache(x []int) FlipCache {
	c := &seqFlipCache{
		m: m, s: m.NewScratch(), x: make([]int, m.n),
		z: tensor.NewVector(m.n), p: tensor.NewVector(m.n + 1),
	}
	c.Reset(x)
	return c
}

// seqFlipCache is the tail-only TailFlipCache of both sequential families;
// see seqModel.NewFlipCache. s.States row i holds the state site i's
// conditional reads, z[i] that site's pre-activation, and p[i] the
// log-probability fold over sites < i (p[n] is the total; p[0] stays 0).
type seqFlipCache struct {
	m      *seqModel
	s      *SeqScratch
	x      []int
	z, p   tensor.Vector
	logPsi float64
}

// rebase recomputes the recorded base trajectory from site `from` onward,
// reusing the prefix records (sites < from are unaffected by whatever change
// prompted the rebase). The resumed chain performs the identical operations
// a from-scratch rebuild would, so the records are bitwise independent of
// the rebase history.
func (c *seqFlipCache) rebase(from int) {
	m, s, cell := c.m, c.s, c.m.cell
	if from == 0 {
		cell.initState(s.S)
	} else {
		copy(s.S, s.States.Row(from))
	}
	for i := from; i < m.n; i++ {
		copy(s.States.Row(i), s.S)
		c.z[i] = cell.siteZ(s.S, i)
		c.p[i+1] = c.p[i] + condTerm(c.z[i], c.x[i])
		m.advance(s, i, c.x[i])
	}
	c.logPsi = 0.5 * c.p[m.n]
}

func (c *seqFlipCache) LogPsi() float64 { return c.logPsi }

// FlipLogPsi implements TailFlipCache: re-branch site bit on the unchanged
// base z, resume the chain from the recorded snapshot with the flipped bit
// consumed, and fold the tail terms onto the recorded prefix sum — bitwise
// a fresh LogPsi of the flipped configuration.
func (c *seqFlipCache) FlipLogPsi(bit int) float64 {
	m, s, cell := c.m, c.s, c.m.cell
	nb := 1 - c.x[bit]
	lp := c.p[bit] + condTerm(c.z[bit], nb)
	copy(s.S, s.States.Row(bit))
	m.advance(s, bit, nb)
	for j := bit + 1; j < m.n; j++ {
		lp += condTerm(cell.siteZ(s.S, j), c.x[j])
		m.advance(s, j, c.x[j])
	}
	return 0.5 * lp
}

func (c *seqFlipCache) Delta(bit int) float64 { return c.FlipLogPsi(bit) - c.logPsi }

func (c *seqFlipCache) Flip(bit int) {
	c.x[bit] = 1 - c.x[bit]
	c.rebase(bit)
}

func (c *seqFlipCache) State() []int { return c.x }

func (c *seqFlipCache) Reset(x []int) {
	copy(c.x, x)
	c.rebase(0)
}

// NewIncrementalEvaluator returns the ancestral-sampling evaluator: the
// fold is incremental by construction, one cell step per fixed bit.
func (m *seqModel) NewIncrementalEvaluator() ConditionalEvaluator {
	e := &seqEvaluator{m: m, s: m.NewScratch()}
	e.Reset()
	return e
}

type seqEvaluator struct {
	m      *seqModel
	s      *SeqScratch
	fixed  int
	passes int64
}

func (e *seqEvaluator) Reset() {
	e.m.cell.initState(e.s.S)
	e.fixed = 0
}

func (e *seqEvaluator) Prob(i int) float64 {
	return 1 / (1 + math.Exp(-e.m.cell.siteZ(e.s.S, i)))
}

func (e *seqEvaluator) Fix(i, bit int) {
	e.m.advance(e.s, i, bit)
	if e.fixed++; e.fixed == e.m.n {
		e.passes++
	}
}

func (e *seqEvaluator) ForwardPasses() int64 { return e.passes }

// NewBatchEvaluator implements BatchEvaluatorBuilder with the row adaptor
// over NewFlipCache and NewGradEvaluator, one per worker behind splitRows:
// the flips of one row share every prefix of the chain and the scalar cache
// reuses them in place — a site-major slab kernel ties or loses to that for
// both families at every measured size and worker count
// (docs/ARCHITECTURE.md, "Which kernel a family keeps"), so the scalar path
// is the batched path. workers bounds the fan-out (<= 0 means GOMAXPROCS)
// and does not affect any output value. The evaluator is not safe for
// concurrent use.
func (m *seqModel) NewBatchEvaluator(workers int) BatchEvaluator {
	return splitRows(m, workers, func() BatchEvaluator { return newRowEvaluator(m) })
}

// NewBatchAncestralSampler implements BatchAncestralBuilder with the row
// adaptor over NewIncrementalEvaluator.
func (m *seqModel) NewBatchAncestralSampler() BatchAncestralSampler {
	return &rowAncestral{sites: m.n, newEval: m.NewIncrementalEvaluator}
}

var (
	_ Autoregressive        = (*seqModel)(nil)
	_ CacheBuilder          = (*seqModel)(nil)
	_ GradEvaluatorBuilder  = (*seqModel)(nil)
	_ BatchEvaluatorBuilder = (*seqModel)(nil)
	_ BatchAncestralBuilder = (*seqModel)(nil)
	_ TailFlipCache         = (*seqFlipCache)(nil)
)
