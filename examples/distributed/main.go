// Distributed scaling: the paper's Figure 4 at laptop scale. With the
// per-device mini-batch fixed (mbs=4), adding devices grows the effective
// batch, which improves the converged energy until it saturates. Devices
// are goroutine replicas synchronized by a real ring all-reduce; the
// modeled V100 cluster then reports the weak-scaling times of Figure 3.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"github.com/vqmc-scale/parvqmc"
)

func main() {
	const (
		n     = 16
		mbs   = 4
		iters = 200
	)
	problem := parvqmc.TIM(n, 33)
	exact, err := problem.ExactGroundEnergy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TIM n=%d, exact ground energy %.4f\n", n, exact)
	fmt.Printf("Fixed per-device batch mbs=%d; effective batch = mbs x devices\n\n", mbs)
	fmt.Printf("%-9s %-14s %-12s %-10s\n", "devices", "eff. batch", "energy", "gap %")

	for _, devices := range []int{1, 2, 4, 8, 16} {
		res, err := parvqmc.TrainDistributed(problem, parvqmc.Options{
			Hidden:     32,
			Iterations: iters,
			EvalBatch:  1024,
			Seed:       5,
		}, devices, mbs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9d %-14d %-12.4f %.3f\n",
			devices, devices*mbs, res.Energy, 100*(res.Energy-exact)/(-exact))
	}

	fmt.Println("\nLarger effective batches explore the state space better, so the")
	fmt.Println("converged energy improves with the device count and saturates for")
	fmt.Println("small problems — the mechanism behind the paper's Figure 4.")

	// Distributed stochastic reconfiguration: the Fisher solve runs
	// matrix-free CG with one packed ring all-reduce per iteration, so the
	// O_k batch never leaves its replica. Each replica additionally fans
	// its local-energy and gradient evaluation across 2 workers — the
	// two-level replica x worker scheme modeling node x GPU clusters.
	fmt.Println("\nDistributed SR (natural gradient), 4 devices x 2 workers:")
	fmt.Printf("%-9s %-12s %-10s %-14s\n", "iters", "energy", "gap %", "mean CG iters")
	for _, iters := range []int{10, 25, 50} {
		res, err := parvqmc.TrainDistributed(problem, parvqmc.Options{
			Hidden:             32,
			Iterations:         iters,
			EvalBatch:          1024,
			Optimizer:          "sgd",
			StochasticReconfig: true,
			Workers:            2,
			Seed:               5,
		}, 4, 32)
		if err != nil {
			log.Fatal(err)
		}
		var cg float64
		for _, s := range res.Curve {
			cg += float64(s.SRIters)
		}
		cg /= float64(len(res.Curve))
		fmt.Printf("%-9d %-12.4f %-10.3f %.1f\n",
			iters, res.Energy, 100*(res.Energy-exact)/(-exact), cg)
	}
	fmt.Println("\nSR preconditions with the Fisher matrix estimated from the SAME")
	fmt.Println("distributed batch, converging in far fewer iterations; replica")
	fmt.Println("parameters remain bit-identical throughout.")
}
