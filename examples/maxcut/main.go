// Max-Cut: use VQMC as a combinatorial-optimization heuristic (Section 5.3
// of the paper) on a dense random graph, and compare against the classical
// baselines — random cut, Goemans-Williamson SDP rounding, and
// Burer-Monteiro with Riemannian trust-region optimization.
//
//	go run ./examples/maxcut
package main

import (
	"fmt"
	"log"

	"github.com/vqmc-scale/parvqmc"
)

func main() {
	const n = 40

	problem := parvqmc.MaxCut(n, 11)
	fmt.Printf("Max-Cut on a random G(n=%d, p=3/4) graph, total edge weight %.0f\n",
		n, problem.TotalEdgeWeight())
	fmt.Printf("%-22s %s\n", "method", "cut")

	for _, m := range []struct{ method, label string }{
		{"random", "Random assignment"},
		{"gw", "Goemans-Williamson"},
		{"bm", "Burer-Monteiro (RTR)"},
	} {
		res, err := parvqmc.SolveMaxCutClassical(problem, m.method, 3)
		if err != nil {
			log.Fatal(err)
		}
		if res.SDPBound > 0 {
			fmt.Printf("%-22s %.0f   (SDP upper bound %.1f)\n", m.label, res.Cut, res.SDPBound)
		} else {
			fmt.Printf("%-22s %.0f\n", m.label, res.Cut)
		}
	}

	// VQMC with the paper's strongest configuration: MADE + AUTO + SGD+SR.
	res, err := parvqmc.Train(problem, parvqmc.Options{
		Optimizer:          "sgd",
		StochasticReconfig: true,
		BatchSize:          512,
		Iterations:         300,
		EvalBatch:          1024,
		Seed:               4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %.1f   (mean over the evaluation batch)\n", "VQMC (MADE+AUTO+SR)", res.Cut)
}
