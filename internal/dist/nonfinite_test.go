package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// nonFiniteHams are a TIM instance, whose flip ratios can carry a poisoned
// amplitude into the local energies, and a Max-Cut instance, whose energies
// are diagonal and stay finite whatever the model holds.
func nonFiniteHams() (tim, maxCut hamiltonian.Hamiltonian) {
	return hamiltonian.RandomTIM(6, rng.New(77)), hamiltonian.NewMaxCut(graph.RandomBernoulli(6, rng.New(78)))
}

// replicaState is everything a step may commit on one replica: parameter
// bits (a poisoned NaN is not == to itself), optimizer moments and the SR
// solver state.
type replicaState struct {
	params []uint64
	opt    optimizer.Optimizer
	sr     optimizer.SRState
}

func captureReplica(t *testing.T, rep Replica) replicaState {
	t.Helper()
	var st replicaState
	for _, p := range rep.Model.Params() {
		st.params = append(st.params, math.Float64bits(p))
	}
	var err error
	if st.opt, err = optimizer.CloneOptimizerState(rep.Opt); err != nil {
		t.Fatal(err)
	}
	if rep.SR != nil {
		st.sr = rep.SR.CaptureState()
	}
	return st
}

// TestNonFiniteStepCommitsNothing: after two clean steps, one poisoned
// parameter on rank 0 makes step 3 return ErrNonFinite on every rank, at
// L = 1 and L = 2, with and without SR. No rank deadlocks; each verdict
// names the iteration and the phase; parameters, optimizer moments and the
// SR warm start keep their step-entry values; the group stays healthy and a
// second attempt fails the same way.
func TestNonFiniteStepCommitsNothing(t *testing.T) {
	tim, maxCut := nonFiniteHams()
	for _, pc := range []struct {
		name     string
		value    float64
		last     bool   // poison the last parameter, else the first
		timPhase string // Max-Cut always fails in the update phase
	}{
		// The last site's output bias: every row's log-amplitude is NaN.
		{"nan-bias", math.NaN(), true, "energy"},
		// W1[0][0], a live weight: ReLU passes +Inf to the output layer,
		// whose weight gradient takes 0 * Inf = NaN.
		{"inf-weight", math.Inf(1), false, "update"},
	} {
		for _, hc := range []struct {
			name, phase string
			h           hamiltonian.Hamiltonian
		}{{"tim", pc.timPhase, tim}, {"maxcut", "update", maxCut}} {
			for _, sr := range []*optimizer.SR{nil, optimizer.NewSR(1e-3)} { // Adam, or SGD and SR
				for _, L := range []int{1, 2} {
					name := fmt.Sprintf("%s/%s/sr=%v/L=%d", pc.name, hc.name, sr != nil, L)
					f := fixture{ham: hc.h, n: hc.h.N(), h: 8, L: L, mb: 16, init: 90, stream: 91, sr: sr}
					if sr != nil {
						f.sgd = 0.1
					}
					tr := f.build(t)
					mustTrain(t, tr, 2)
					p := tr.Reps[0].Model.Params()
					if pc.last {
						p[len(p)-1] = pc.value
					} else {
						p[0] = pc.value
					}
					nn.InvalidateParams(tr.Reps[0].Model)
					entry := make([]replicaState, L)
					for r, rep := range tr.Reps {
						entry[r] = captureReplica(t, rep)
					}
					for attempt := 0; attempt < 2; attempt++ {
						_, err := tr.Step(3)
						var ranks interface{ Unwrap() []error }
						if !errors.Is(err, core.ErrNonFinite) || !errors.As(err, &ranks) || len(ranks.Unwrap()) != L {
							t.Fatalf("%s: step 3 returned %v, want ErrNonFinite from each of %d ranks", name, err, L)
						}
						for _, e := range ranks.Unwrap() {
							if want := "iteration 3, " + hc.phase + " phase"; !errors.Is(e, core.ErrNonFinite) || !strings.Contains(e.Error(), want) {
								t.Fatalf("%s: rank verdict %q, want ErrNonFinite at %q", name, e, want)
							}
						}
						if gerr := tr.GroupErr(); gerr != nil {
							t.Fatalf("%s: a non-finite step condemned the group: %v", name, gerr)
						}
						for r, rep := range tr.Reps {
							if got := captureReplica(t, rep); !reflect.DeepEqual(got, entry[r]) {
								t.Fatalf("%s attempt %d: rank %d state moved from its step-entry value", name, attempt, r)
							}
						}
					}
				}
			}
		}
	}
}

// TestSupervisedNonFiniteAborts: a supervised run that goes non-finite ends
// with ErrNonFinite at once, keeps the completed steps, and neither
// replaces nor shrinks anything.
func TestSupervisedNonFiniteAborts(t *testing.T) {
	for _, L := range []int{1, 2} {
		tim, _ := nonFiniteHams()
		tr := fixture{ham: tim, n: tim.N(), h: 8, L: L, mb: 16, init: 90, stream: 91}.build(t)
		sup, err := NewSupervisor(tr, Policy{Builder: madeBuilder})
		if err != nil {
			t.Fatal(err)
		}
		hist, err := sup.Train(5, func(st core.IterStats) {
			if st.Iter == 2 {
				tr.Reps[0].Model.Params()[0] = math.NaN()
				nn.InvalidateParams(tr.Reps[0].Model)
			}
		})
		if !errors.Is(err, core.ErrNonFinite) {
			t.Fatalf("L=%d: supervised run returned %v, want ErrNonFinite", L, err)
		}
		if len(hist) != 2 || sup.Trainer() != tr {
			t.Fatalf("L=%d: want the 2 clean steps on the original trainer, got %d steps", L, len(hist))
		}
		if st := sup.Stats(); st != (SupervisorStats{}) {
			t.Fatalf("L=%d: a non-finite step was handled as a failure: %+v", L, st)
		}
	}
}
