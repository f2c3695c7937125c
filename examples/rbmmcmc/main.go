// RBM + MCMC: train the Carleo–Troyer RBM wavefunction on a 12-site
// transverse-field Ising chain, sampling with Metropolis-Hastings. The
// sampler walks the RBM's scalar O(h) flip cache chain by chain; the
// local-energy and gradient phases that follow run through the RBM's batch
// evaluator, which fuses the per-sample theta = W s + c matvecs into blocked
// theta = S·Wᵀ GEMMs over the batch — bitwise the values the scalar kernels
// give, so the fusion is pure throughput.
//
//	go run ./examples/rbmmcmc
package main

import (
	"fmt"
	"log"

	"github.com/vqmc-scale/parvqmc"
)

func main() {
	const n = 12

	problem := parvqmc.TIM(n, 3)
	fmt.Printf("TIM instance with %d sites, RBM wavefunction, MCMC sampling\n", n)

	res, err := parvqmc.Train(problem, parvqmc.Options{
		Model:        "rbm",
		Sampler:      "mcmc",
		Hidden:       24,
		BatchSize:    256,
		Iterations:   400,
		EvalBatch:    512,
		Seed:         11,
		LearningRate: 0.003,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: E = %.6f +- %.6f  (%v)\n", res.Energy, res.Std, res.TrainTime.Round(1e6))

	exact, err := problem.ExactGroundEnergy()
	if err != nil {
		log.Fatal(err)
	}
	// The residual gap is a property of the RBM&MCMC pipeline itself — the
	// paper's comparison finds MADE with exact sampling
	// (examples/quickstart) converges much tighter on TIM.
	fmt.Printf("exact energy: %.6f  (relative gap %.3f%%; see examples/quickstart for MADE&AUTO)\n",
		exact, 100*(res.Energy-exact)/(-exact))
}
