package sampler

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// kernel is a Markov transition rule targeting pi(x) ~ psi(x)^2. It starts
// one chain's walk at configuration x, drawing from rnd: step makes one
// transition and reports whether the chain accepted it, state returns the
// walk's current configuration (valid until the next step). The walk may
// keep its configuration in x itself or in storage of its own.
type kernel func(x []int, rnd *rng.Rand) (step func() bool, state func() []int)

// markov is the one chain driver under both Markov samplers, MCMC and Gibbs,
// which differ only in their kernel: it owns the configuration defaults, the
// per-chain streams and persistent configurations, the split of a batch into
// contiguous chain slabs, refill, burn-in, thinning, the cost counters and
// the Resumable pair.
type markov struct {
	sites    int
	kern     kernel
	cfg      MCMCConfig
	rngs     []*rng.Rand
	states   [][]int // per-chain configurations, carried across calls
	cost     Cost
	accepted atomic.Int64
}

// newMarkov defaults cfg's zero fields (2 chains, the kernel's burn-in, no
// thinning; a negative BurnIn asks for none), splits one stream per chain
// off r and draws each chain's initial configuration from its own stream.
func newMarkov(sites int, kern kernel, cfg MCMCConfig, burnIn int, r *rng.Rand) *markov {
	if cfg.Chains <= 0 {
		cfg.Chains = 2
	}
	if cfg.BurnIn < 0 {
		cfg.BurnIn = 0
	} else if cfg.BurnIn == 0 {
		cfg.BurnIn = burnIn
	}
	if cfg.Thin <= 0 {
		cfg.Thin = 1
	}
	m := &markov{sites: sites, kern: kern, cfg: cfg}
	m.rngs = r.SplitN(cfg.Chains)
	m.states = make([][]int, cfg.Chains)
	for c := range m.states {
		m.states[c] = make([]int, sites)
		m.rngs[c].FillBits(m.states[c])
	}
	return m
}

// Config returns the effective configuration after defaulting.
func (m *markov) Config() MCMCConfig { return m.cfg }

// Sample implements Sampler: each chain burns in, then records every
// Thin-th state until its share of the batch is filled. Chains run
// concurrently; the batch is split into contiguous chain slabs so output is
// deterministic given the seed and chain count.
func (m *markov) Sample(b *Batch) {
	if b.Sites != m.sites {
		panic("sampler: batch sites mismatch")
	}
	chains := m.cfg.Chains
	parallel.ForEach(chains, chains, func(c int) {
		lo := c * b.N / chains
		hi := (c + 1) * b.N / chains
		rnd, x := m.rngs[c], m.states[c]
		if !m.cfg.Persistent {
			rnd.FillBits(x)
		}
		step, state := m.kern(x, rnd)
		var acc int64
		walk := func(k int) {
			for ; k > 0; k-- {
				if step() {
					acc++
				}
			}
		}
		walk(m.cfg.BurnIn)
		for s := lo; s < hi; s++ {
			walk(m.cfg.Thin)
			copy(b.Row(s), state())
		}
		copy(x, state())
		steps := int64(m.cfg.BurnIn + (hi-lo)*m.cfg.Thin)
		m.cost.addSteps(steps)
		// A transition costs one amplitude evaluation (Metropolis) or one
		// pass over every hidden and visible unit (a Gibbs sweep): count it
		// as a forward pass for cost parity with AUTO (Figure 1).
		m.cost.addPasses(steps)
		m.accepted.Add(acc)
	})
}

// Cost implements Sampler.
func (m *markov) Cost() Cost { return m.cost }

// Snapshot implements Resumable: per-chain RNG streams plus the chain
// configurations (which seed the next call's walk under Persistent, and
// whose refill draws are part of the stream otherwise), deep-copied.
func (m *markov) Snapshot() State {
	s := State{Rngs: make([]rng.State, len(m.rngs)), Chains: make([][]int, len(m.states))}
	for c, r := range m.rngs {
		s.Rngs[c] = r.State()
		s.Chains[c] = slices.Clone(m.states[c])
	}
	return s
}

// Restore implements Resumable.
func (m *markov) Restore(s State) {
	restoreRngs(m.rngs, s.Rngs, "markov")
	if len(s.Chains) != len(m.states) {
		panic(fmt.Sprintf("sampler: restoring %d chains into markov sampler with %d", len(s.Chains), len(m.states)))
	}
	for c, st := range s.Chains {
		if len(st) != m.sites {
			panic(fmt.Sprintf("sampler: markov chain %d has %d sites, snapshot has %d", c, m.sites, len(st)))
		}
		copy(m.states[c], st)
	}
}
