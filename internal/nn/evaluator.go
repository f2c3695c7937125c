package nn

import (
	"github.com/vqmc-scale/parvqmc/internal/tensor"
)

// ConditionalEvaluator walks the autoregressive chain rule for one sample:
// Reset, then alternately Prob(i) / Fix(i, bit) for i = 0..n-1 in order.
// Implementations are not safe for concurrent use; create one per worker.
type ConditionalEvaluator interface {
	// Reset starts a fresh sample.
	Reset()
	// Prob returns P(x_i = 1 | bits fixed so far). Bits 0..i-1 must have
	// been fixed already.
	Prob(i int) float64
	// Fix commits bit i of the sample being built.
	Fix(i, bit int)
	// ForwardPasses reports the cumulative number of full-network forward
	// passes consumed (the paper's cost unit for Figure 1).
	ForwardPasses() int64
}

// naiveEvaluator reruns the whole masked network for every conditional:
// exactly Algorithm 1 of the paper, n forward passes per sample.
type naiveEvaluator struct {
	m      *MADE
	s      *madeScratch
	x      []int
	passes int64
}

func (m *MADE) newNaiveEvaluator() ConditionalEvaluator {
	return &naiveEvaluator{m: m, s: m.newScratch(), x: make([]int, m.n)}
}

// NaiveAncestral returns the builder of the paper's Algorithm 1 as a
// batched sampler: the row adaptor of NewBatchAncestralSampler over the
// naive evaluator, n forward passes per sample where the incremental one
// charges one. Both evaluate the same conditionals; this one is kept as the
// paper's reference (the "auto-naive" sampler).
func (m *MADE) NaiveAncestral() BatchAncestralBuilder { return naiveAncestral{m} }

type naiveAncestral struct{ m *MADE }

func (b naiveAncestral) NewBatchAncestralSampler() BatchAncestralSampler {
	return &rowAncestral{sites: b.m.n, newEval: b.m.newNaiveEvaluator}
}

func (e *naiveEvaluator) Reset() {
	for i := range e.x {
		e.x[i] = 0
	}
}

func (e *naiveEvaluator) Prob(i int) float64 {
	e.passes++
	return e.m.conditional(e.x, i, e.s)
}

func (e *naiveEvaluator) Fix(i, bit int) { e.x[i] = bit }

func (e *naiveEvaluator) ForwardPasses() int64 { return e.passes }

// incrementalEvaluator maintains the running hidden pre-activation so each
// conditional costs O(h) instead of O(hn). One full forward-pass-equivalent
// is charged per completed sample (n Fix calls), matching its true O(hn)
// total cost.
type incrementalEvaluator struct {
	m      *MADE
	z1     tensor.Vector
	fixed  int
	passes int64
}

// NewIncrementalEvaluator returns the O(h)-per-bit fast-path evaluator.
func (m *MADE) NewIncrementalEvaluator() ConditionalEvaluator {
	return &incrementalEvaluator{m: m, z1: m.B1.Clone()}
}

func (e *incrementalEvaluator) Reset() {
	copy(e.z1, e.m.B1)
	e.fixed = 0
}

func (e *incrementalEvaluator) Prob(i int) float64 {
	return e.m.conditionalRow(e.z1, i)
}

func (e *incrementalEvaluator) Fix(i, bit int) {
	e.m.accumulateInput(e.z1, i, bit)
	if e.fixed++; e.fixed == e.m.n {
		e.passes++
	}
}

func (e *incrementalEvaluator) ForwardPasses() int64 { return e.passes }
