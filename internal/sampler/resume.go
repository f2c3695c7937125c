package sampler

// Resumable sampling: samplers that can capture and restore their complete
// stream position. This is the sampler half of the recovery doctrine (see
// docs/ARCHITECTURE.md, "Failure model"): a replica rebuilt from a
// checkpoint is only bit-identical to the lost one if its sampler resumes
// the exact RNG draw — and, for Markov samplers, the exact chain state —
// where the failed rank stood when the checkpoint's step began.

import (
	"fmt"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// State is a sampler's complete stream position: Auto's one RNG state or a
// Markov sampler's one per chain, plus (for Markov samplers) the persistent
// per-chain configurations. Restoring it replays sampling bit-identically
// from the captured point. The zero value is not a valid state.
type State struct {
	// Rngs holds the generator states: Auto's single stream, or one per
	// chain (MCMC, Gibbs) in chain order.
	Rngs []rng.State
	// Chains holds the persistent chain configurations for Markov samplers,
	// deep-copied; nil for samplers without chain state (Auto).
	Chains [][]int
}

// Resumable is implemented by samplers whose stream position can be
// captured and restored. All samplers in this package implement it.
type Resumable interface {
	// Snapshot captures the sampler's current stream position. The returned
	// state shares no storage with the sampler.
	Snapshot() State
	// Restore rewinds the sampler to a previously captured position. It
	// panics if the state's shape (stream/chain count, sites) does not
	// match the sampler's.
	Restore(State)
}

// restoreRngs rewinds a generator slice, enforcing matching counts.
func restoreRngs(rngs []*rng.Rand, states []rng.State, kind string) {
	if len(states) != len(rngs) {
		panic(fmt.Sprintf("sampler: restoring %d RNG states into %s sampler with %d streams",
			len(states), kind, len(rngs)))
	}
	for i, s := range states {
		rngs[i].SetState(s)
	}
}

// Snapshot implements Resumable: an Auto sampler's whole position is its
// one RNG stream (ancestral sampling keeps no cross-call state).
func (a *Auto) Snapshot() State {
	return State{Rngs: []rng.State{a.rnd.State()}}
}

// Restore implements Resumable.
func (a *Auto) Restore(s State) {
	restoreRngs([]*rng.Rand{a.rnd}, s.Rngs, "auto")
}

var (
	_ Resumable = (*Auto)(nil)
	_ Resumable = (*MCMC)(nil)
	_ Resumable = (*Gibbs)(nil)
)
