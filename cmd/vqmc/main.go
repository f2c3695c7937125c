// Command vqmc trains a neural wavefunction on a TIM or Max-Cut instance
// and reports the converged energy (and cut, for Max-Cut).
//
// Examples:
//
//	vqmc -problem tim -n 16 -iters 300 -batch 512
//	vqmc -problem maxcut -n 50 -model rbm -optimizer sgd -sr
//	vqmc -problem tim -n 12 -exact            # compare against Lanczos
//	vqmc -problem tim -n 20 -devices 4 -batch 4 # data-parallel training
//	vqmc -problem tim -n 16 -devices 4 -batch 8 -elastic -min-replicas 2 -checkpoint-dir ckpt
//
// After training it prints one row per rank with the milliseconds per step
// each training phase took: sample, energy, grad, sync (the collectives
// before the solve, including waiting for slower ranks), precond (the SR
// solve) and update. Under -elastic the rows are the final trainer's: a
// replacement, shrink or grow starts a new trainer whose clocks start at
// zero, so after one the rows hold only the steps since, still divided by
// every step of the run.
//
// With -exact it prints the relative gap (E - E0)/|E0| of the evaluated
// energy E to the exact ground energy E0, with its standard error
// Std/sqrt(eval batch)/|E0|. Under a Markov sampler (mcmc, gibbs) the
// evaluation samples are correlated, so that error is a lower bound.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"github.com/vqmc-scale/parvqmc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vqmc: ")

	var (
		problem = flag.String("problem", "tim", "problem kind: tim or maxcut")
		n       = flag.Int("n", 16, "number of sites (matrix dimension is 2^n)")
		seed    = flag.Uint64("seed", 1, "root random seed")
		model   = flag.String("model", "made", "wavefunction: made, rbm or nade")
		smp     = flag.String("sampler", "", "sampler: auto, auto-naive, mcmc or gibbs (default by model; gibbs needs -model rbm)")
		opt     = flag.String("optimizer", "adam", "optimizer: adam or sgd")
		lr      = flag.Float64("lr", 0, "learning rate (0 = optimizer default)")
		sr      = flag.Bool("sr", false, "enable stochastic reconfiguration (natural gradient)")
		hidden  = flag.Int("hidden", 0, "latent size (0 = paper rule)")
		batch   = flag.Int("batch", 1024, "training batch per device (the global batch is devices x batch)")
		iters   = flag.Int("iters", 300, "training iterations")
		evalB   = flag.Int("eval-batch", 1024, "evaluation batch size")
		burnIn  = flag.Int("mcmc-burnin", 0, "MCMC burn-in (0 = 3n+100)")
		thin    = flag.Int("mcmc-thin", 0, "MCMC thinning (0 = none)")
		chains  = flag.Int("mcmc-chains", 0, "MCMC chains (0 = 2)")
		devices = flag.Int("devices", 1, "data-parallel device count")
		workers = flag.Int("workers", 0, "CPU workers per device (0 = cores / devices, at least 1)")
		elastic = flag.Bool("elastic", false, "supervise training: replace failed replicas, shrink to survivors, re-grow")
		minRep  = flag.Int("min-replicas", 1, "elastic membership floor; below it the run aborts with a final checkpoint (needs -elastic)")
		ckptDir = flag.String("checkpoint-dir", "", "directory for elastic recovery/final checkpoints (needs -elastic; empty = in-memory)")
		doExact = flag.Bool("exact", false, "also compute the exact ground energy (small n)")
		curve   = flag.Bool("curve", false, "print the per-iteration training curve")
		save    = flag.String("save", "", "write the trained model checkpoint to this path")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if msg := ignoredFlag(set, *elastic); msg != "" {
		log.Fatal(msg)
	}
	if *n < 1 {
		log.Fatalf("-n %d: a problem needs at least one site", *n)
	}

	var p *parvqmc.Problem
	switch *problem {
	case "tim":
		p = parvqmc.TIM(*n, *seed)
	case "maxcut":
		p = parvqmc.MaxCut(*n, *seed)
	default:
		log.Fatalf("unknown problem %q (want tim or maxcut)", *problem)
	}

	o := parvqmc.Options{
		Model: *model, Sampler: *smp, Optimizer: *opt, LearningRate: *lr,
		StochasticReconfig: *sr, Hidden: *hidden,
		Iterations: *iters, EvalBatch: *evalB, Workers: *workers, Seed: *seed,
		MCMCBurnIn: *burnIn, MCMCThin: *thin, MCMCChains: *chains,
		Elastic: *elastic, CheckpointDir: *ckptDir,
	}
	if *elastic {
		o.MinReplicas = *minRep
	}

	res, err := parvqmc.TrainDistributed(p, o, *devices, *batch)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("problem      %s n=%d (dimension 2^%d)\n", p.Kind(), p.Sites(), p.Sites())
	fmt.Printf("train time   %v\n", res.TrainTime.Round(1e6))
	fmt.Printf("energy       %.6f +- %.6f (eval batch %d)\n", res.Energy, res.Std, *evalB)
	if cut, ok := p.CutOf(res.Energy); ok {
		fmt.Printf("cut          %.2f of total weight %.0f\n", cut, p.TotalEdgeWeight())
	}
	if es := res.Elastic; es != nil {
		fmt.Printf("elastic      %d failures, %d replaced (%d retries), %d shrinks, %d grows; finished on %d replicas\n",
			es.Failures, es.Replacements, es.Retries, es.Shrinks, es.Grows, es.FinalReplicas)
		if es.FinalCheckpoint != "" {
			fmt.Printf("checkpoint   %s\n", es.FinalCheckpoint)
		}
	}
	fmt.Printf("ms per step  %8s %8s %8s %8s %8s %8s\n", "sample", "energy", "grad", "sync", "precond", "update")
	steps := float64(max(len(res.Curve), 1))
	for r, t := range res.RankTimings {
		fmt.Printf("rank %-7d", r)
		for _, d := range []time.Duration{t.Sample, t.Energy, t.Grad, t.Sync, t.Precond, t.Update} {
			fmt.Printf(" %8.3f", float64(d)/1e6/steps)
		}
		fmt.Println()
	}
	if *doExact {
		e, err := p.ExactGroundEnergy()
		if err != nil {
			log.Fatalf("exact diagonalization: %v", err)
		}
		stderr := res.Std / math.Sqrt(float64(*evalB)) / abs(e)
		bound := ""
		if markov(*smp, *model) {
			bound = ", error a lower bound: correlated Markov samples"
		}
		fmt.Printf("exact energy %.6f (relative gap %.4f +- %.4f%s)\n", e, (res.Energy-e)/abs(e), stderr, bound)
	}
	if *curve {
		fmt.Println("iter,energy,std")
		for _, s := range res.Curve {
			fmt.Printf("%d,%.6f,%.6f\n", s.Iteration, s.Energy, s.Std)
		}
	}
	if *save != "" {
		if err := res.SaveModel(*save); err != nil {
			log.Fatalf("saving model: %v", err)
		}
		fmt.Printf("model saved  %s\n", *save)
	}
	os.Exit(0)
}

// ignoredFlag names a flag the run would silently ignore, "" when there is
// none. set holds the flags given on the command line (flag.Visit), so a
// default never trips it.
func ignoredFlag(set map[string]bool, elastic bool) string {
	if !elastic && (set["checkpoint-dir"] || set["min-replicas"]) {
		return "-checkpoint-dir and -min-replicas configure the elastic supervisor and need -elastic"
	}
	return ""
}

// markov reports whether the run samples by a Markov chain: -sampler mcmc
// or gibbs, or no -sampler with the RBM, whose default is mcmc.
func markov(sampler, model string) bool {
	switch strings.ToLower(sampler) {
	case "mcmc", "gibbs":
		return true
	case "":
		return strings.ToLower(model) == "rbm"
	}
	return false
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
