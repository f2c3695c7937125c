package parvqmc

import (
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/maxcut"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func TestTrainTIMReachesGroundState(t *testing.T) {
	p := TIM(8, 3)
	exactE, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(p, Options{
		Hidden: 16, BatchSize: 256, Iterations: 300, EvalBatch: 512,
		Optimizer: "adam", LearningRate: 0.05, Workers: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gap := (res.Energy - exactE) / math.Abs(exactE)
	if gap > 0.05 {
		t.Fatalf("energy %v vs exact %v (gap %.3f)", res.Energy, exactE, gap)
	}
	if len(res.Curve) != 300 {
		t.Fatalf("curve length %d", len(res.Curve))
	}
	if res.ForwardPasses <= 0 {
		t.Fatal("forward passes not counted")
	}
}

func TestTrainMaxCutProducesCut(t *testing.T) {
	p := MaxCut(10, 4)
	res, err := Train(p, Options{
		BatchSize: 256, Iterations: 200, EvalBatch: 512,
		LearningRate: 0.05, Workers: 2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut <= p.TotalEdgeWeight()/2 {
		t.Fatalf("trained cut %v not better than random baseline %v",
			res.Cut, p.TotalEdgeWeight()/2)
	}
}

func TestRBMRoute(t *testing.T) {
	p := TIM(6, 7)
	res, err := Train(p, Options{
		Model: "rbm", BatchSize: 128, Iterations: 100, EvalBatch: 256,
		LearningRate: 0.02, MCMCBurnIn: 150, Workers: 2, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve[len(res.Curve)-1].Energy >= res.Curve[0].Energy {
		t.Fatal("RBM training did not reduce energy")
	}
}

func TestOptionValidation(t *testing.T) {
	p := TIM(5, 1)
	if _, err := Train(p, Options{Model: "vae"}); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, err := Train(p, Options{Model: "rbm", Sampler: "auto"}); err == nil {
		t.Fatal("rbm+auto should error (unnormalized)")
	}
	if _, err := Train(p, Options{Optimizer: "lion"}); err == nil {
		t.Fatal("unknown optimizer should error")
	}
	if _, err := Train(p, Options{Sampler: "hamiltonian-mc"}); err == nil {
		t.Fatal("unknown sampler should error")
	}
	// Only the elastic supervisor writes checkpoints: a CheckpointDir without
	// Elastic is an error naming the field, not an option dropped silently.
	o := Options{CheckpointDir: t.TempDir(), BatchSize: 8, Iterations: 2, EvalBatch: 8}
	for devices := 1; devices <= 2; devices++ {
		_, err := TrainDistributed(p, o, devices, 8)
		if err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
			t.Fatalf("%d devices: CheckpointDir without Elastic should error naming the field, got %v", devices, err)
		}
	}
	if _, err := Train(p, o); err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("Train: CheckpointDir without Elastic should error naming the field, got %v", err)
	}
	// The same holds for the other option only that path reads, the
	// elastic floor.
	small := Options{BatchSize: 8, Iterations: 2, EvalBatch: 8}
	for _, tc := range []struct {
		field string
		o     Options
	}{
		{"MinReplicas", Options{MinReplicas: 1}},
		{"MinReplicas", Options{MinReplicas: 2}},
	} {
		tc.o.BatchSize, tc.o.Iterations, tc.o.EvalBatch = small.BatchSize, small.Iterations, small.EvalBatch
		for devices := 1; devices <= 2; devices++ {
			if _, err := TrainDistributed(p, tc.o, devices, 8); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("%+v at %d devices: want an error naming %s, got %v", tc.o, devices, tc.field, err)
			}
		}
		if _, err := Train(p, tc.o); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("Train %+v: want an error naming %s, got %v", tc.o, tc.field, err)
		}
	}
	// Still legal: the floor under Elastic, and a family name in upper
	// case.
	for _, o := range []Options{
		{Elastic: true, MinReplicas: 1},
		{Model: "NADE"}, {Model: "Rbm"},
	} {
		o.BatchSize, o.Iterations, o.EvalBatch = small.BatchSize, small.Iterations, small.EvalBatch
		if _, err := Train(p, o); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
}

func TestSRRoute(t *testing.T) {
	p := TIM(6, 9)
	res, err := Train(p, Options{
		Optimizer: "sgd", StochasticReconfig: true,
		BatchSize: 128, Iterations: 80, EvalBatch: 256, Workers: 2, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	exactE, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy < exactE-0.5 {
		t.Fatalf("SR energy %v below exact %v: estimator broken", res.Energy, exactE)
	}
}

func TestTrainDistributed(t *testing.T) {
	p := TIM(7, 11)
	res, err := TrainDistributed(p, Options{
		Hidden: 12, Iterations: 120, EvalBatch: 256,
		LearningRate: 0.05, Seed: 12,
	}, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	exactE, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	gap := (res.Energy - exactE) / math.Abs(exactE)
	if gap > 0.15 {
		t.Fatalf("distributed energy %v vs exact %v", res.Energy, exactE)
	}
	if _, err := TrainDistributed(p, Options{}, 0, 4); err == nil {
		t.Fatal("zero devices should error")
	}
	if _, err := TrainDistributed(TIM(0, 1), Options{}, 1, 4); err == nil {
		t.Fatal("a problem with no sites should error")
	}
	// Every route Train takes also runs at 2 devices. A nil error means the
	// replicas ended bit-identical (TrainDistributed checks CheckConsistent
	// before returning rank 0's model), and on Max-Cut, where the local
	// energy is the diagonal, BestConfig must evaluate to BestEnergy.
	mc := MaxCut(8, 13)
	for _, o := range []Options{
		{Model: "rbm", Sampler: "mcmc"},
		{Model: "rbm", Sampler: "gibbs"},
		{Model: "made", Sampler: "auto-naive"},
	} {
		o.Hidden, o.Iterations, o.EvalBatch, o.Seed = 8, 10, 64, 14
		res, err := TrainDistributed(mc, o, 2, 16)
		if err != nil {
			t.Fatalf("%s/%s: %v", o.Model, o.Sampler, err)
		}
		if len(res.Curve) != 10 || res.Curve[0].Batch != 2*16 {
			t.Fatalf("%s/%s: curve of %d steps at batch %d", o.Model, o.Sampler, len(res.Curve), res.Curve[0].Batch)
		}
		if got := mc.ham.Diagonal(res.BestConfig); got != res.BestEnergy {
			t.Fatalf("%s/%s: BestConfig evaluates to %v, BestEnergy is %v", o.Model, o.Sampler, got, res.BestEnergy)
		}
		if cut, _ := mc.CutOf(res.BestEnergy); cut != res.BestCut {
			t.Fatalf("%s/%s: BestCut %v, the cut of BestEnergy is %v", o.Model, o.Sampler, res.BestCut, cut)
		}
	}
}

// TestTrainDistributedElastic runs the supervised (elastic) path through the
// facade. No fault fires at this layer — the test pins the wiring: the
// elastic run is bit-identical to the plain distributed run with the same
// options, the Batch column reports the global effective batch, the Elastic
// summary is populated, and the final checkpoint artifact lands in
// CheckpointDir and reloads.
func TestTrainDistributedElastic(t *testing.T) {
	p := TIM(7, 11)
	o := Options{Hidden: 12, Iterations: 20, EvalBatch: 128, LearningRate: 0.05, Seed: 12}
	plain, err := TrainDistributed(p, o, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o.Elastic = true
	o.MinReplicas = 2
	o.CheckpointDir = dir
	res, err := TrainDistributed(p, o, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy != plain.Energy || res.Std != plain.Std {
		t.Fatalf("elastic run diverged: energy %v vs %v", res.Energy, plain.Energy)
	}
	if len(res.Curve) != len(plain.Curve) {
		t.Fatalf("curve length %d vs %d", len(res.Curve), len(plain.Curve))
	}
	for i := range res.Curve {
		if res.Curve[i] != plain.Curve[i] {
			t.Fatalf("iteration %d diverged: %+v vs %+v", i+1, res.Curve[i], plain.Curve[i])
		}
		if res.Curve[i].Batch != 3*16 {
			t.Fatalf("iteration %d batch %d, want %d", i+1, res.Curve[i].Batch, 3*16)
		}
	}
	if res.Elastic == nil {
		t.Fatal("elastic run returned no ElasticStats")
	}
	if res.Elastic.FinalReplicas != 3 || res.Elastic.Failures != 0 {
		t.Fatalf("ElasticStats = %+v, want a clean 3-replica run", res.Elastic)
	}
	if res.Elastic.FinalCheckpoint == "" {
		t.Fatal("elastic run left no final checkpoint")
	}
	if _, err := os.Stat(res.Elastic.FinalCheckpoint); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
	// MinReplicas above the width is rejected up front.
	bad := o
	bad.MinReplicas = 4
	if _, err := TrainDistributed(p, bad, 3, 16); err == nil {
		t.Fatal("MinReplicas above the device count should error")
	}
}

// TestTrainDistributedSR drives the distributed stochastic-reconfiguration
// route through the facade: 4 replicas x 4 workers, SGD+SR, 50 iterations
// on TIM n=7 must land within 15% of the exact ground energy.
func TestTrainDistributedSR(t *testing.T) {
	p := TIM(7, 11)
	res, err := TrainDistributed(p, Options{
		Hidden: 14, Iterations: 50, EvalBatch: 1024,
		Optimizer: "sgd", StochasticReconfig: true,
		Workers: 4, Seed: 13,
	}, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	exactE, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	gap := (res.Energy - exactE) / math.Abs(exactE)
	if gap > 0.15 {
		t.Fatalf("distributed SR energy %v vs exact %v (gap %.3f)", res.Energy, exactE, gap)
	}
	if len(res.Curve) != 50 {
		t.Fatalf("curve length %d", len(res.Curve))
	}
}

func TestSolveMaxCutClassical(t *testing.T) {
	p := MaxCut(12, 13)
	var cuts []float64
	for _, m := range []string{"random", "gw", "bm"} {
		res, err := SolveMaxCutClassical(p, m, 14)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := p.CutOfAssignment(res.Assignment); !ok || c != res.Cut {
			t.Fatalf("%s: assignment/cut mismatch", m)
		}
		// The facade is maxcut.Solve at the default configuration, and
		// takes the name in any letter case.
		want, err := maxcut.Solve(p.g, m, maxcut.Config{}, rng.New(14))
		if err != nil {
			t.Fatal(err)
		}
		upper, err := SolveMaxCutClassical(p, strings.ToUpper(m), 14)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*ClassicalResult{res, upper} {
			if got.Cut != want.Cut || got.SDPBound != want.SDPBound || !slices.Equal(got.Assignment, want.Assignment) {
				t.Fatalf("%s: facade %+v != maxcut.Solve %+v", m, got, want)
			}
		}
		cuts = append(cuts, res.Cut)
	}
	// Expected ordering: random <= gw <= bm on average; enforce loosely.
	if cuts[2] < cuts[0] {
		t.Fatalf("BM (%v) worse than random (%v)", cuts[2], cuts[0])
	}
	// TIM has no graph.
	if _, err := SolveMaxCutClassical(TIM(5, 1), "gw", 1); err == nil {
		t.Fatal("classical solver on TIM should error")
	}
	for _, m := range []string{"quantum", "", "goemans-williamson", "burer-monteiro"} {
		if _, err := SolveMaxCutClassical(p, m, 1); err == nil {
			t.Fatalf("unknown method %q should error", m)
		}
	}
}

func TestProblemAccessors(t *testing.T) {
	p := MaxCut(9, 15)
	if p.Kind() != "maxcut" || p.Sites() != 9 {
		t.Fatalf("accessors: %s %d", p.Kind(), p.Sites())
	}
	if _, ok := p.CutOf(0); !ok {
		t.Fatal("CutOf should work for maxcut")
	}
	tim := TIM(5, 16)
	if _, ok := tim.CutOf(0); ok {
		t.Fatal("CutOf should fail for tim")
	}
	if tim.TotalEdgeWeight() != 0 {
		t.Fatal("TIM has no edges")
	}
}

func TestDefaultHidden(t *testing.T) {
	if DefaultHidden("rbm", 100) != 100 {
		t.Fatal("RBM default hidden should be n")
	}
	if h := DefaultHidden("made", 100); h < 100 || h > 112 {
		t.Fatalf("MADE default hidden = %d, want ~106", h)
	}
	if nade, made := DefaultHidden("nade", 100), DefaultHidden("made", 100); nade != made {
		t.Fatalf("NADE default hidden = %d, want MADE's %d", nade, made)
	}
	if rnn, made := DefaultHidden("RNN", 100), DefaultHidden("made", 100); rnn != made/2 {
		t.Fatalf("RNN default hidden = %d, want half of MADE's %d", rnn, made)
	}
	if h := DefaultHidden("rnn", 2); h != 4 {
		t.Fatalf("RNN default hidden at n=2 = %d, want the floor 4", h)
	}
	// The helper must report the width Train actually builds.
	const n = 6
	for _, model := range []string{"made", "rbm", "nade", "rnn"} {
		res, err := Train(TIM(n, 3), Options{Model: model, BatchSize: 8, Iterations: 1, EvalBatch: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.model.(interface{ Hidden() int }).Hidden(), DefaultHidden(model, n); got != want {
			t.Errorf("%s: Train built hidden width %d, DefaultHidden says %d", model, got, want)
		}
	}
}

func TestExactGroundEnergyMaxCut(t *testing.T) {
	p := MaxCut(10, 17)
	e, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	cut, _ := p.CutOf(e)
	if cut <= p.TotalEdgeWeight()/2 {
		t.Fatalf("exact max cut %v should beat half weight %v", cut, p.TotalEdgeWeight()/2)
	}
}

func TestMADEWithMCMCSamplerAblation(t *testing.T) {
	// The facade permits MADE+MCMC (used to isolate the sampler's effect).
	p := TIM(6, 19)
	res, err := Train(p, Options{
		Model: "made", Sampler: "mcmc", BatchSize: 128, Iterations: 50,
		EvalBatch: 128, Workers: 2, Seed: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Energy) {
		t.Fatal("NaN energy")
	}
}

func TestNaiveAutoSamplerRoute(t *testing.T) {
	p := TIM(6, 21)
	res, err := Train(p, Options{
		Sampler: "auto-naive", BatchSize: 64, Iterations: 30, EvalBatch: 64,
		Workers: 1, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 1 charges n passes per sample.
	wantMin := int64(6 * 64 * 30)
	if res.ForwardPasses < wantMin {
		t.Fatalf("forward passes %d < %d", res.ForwardPasses, wantMin)
	}
}

// TestWorkersIsAThroughputKnob: Train's ancestral sampler draws from one
// stream whatever Workers is, so Workers changes no number of the result;
// and "auto-naive" is that same sampler over Algorithm 1's evaluator, at n
// times the forward passes.
func TestWorkersIsAThroughputKnob(t *testing.T) {
	const n = 6
	p := TIM(n, 21)
	run := func(smp string, workers int) *Result {
		res, err := Train(p, Options{
			Sampler: smp, Hidden: 8, BatchSize: 48, Iterations: 12, EvalBatch: 48,
			Workers: workers, Seed: 22,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	w1, w3 := run("auto", 1), run("auto", 3)
	if !reflect.DeepEqual(w1.Curve, w3.Curve) || w1.Energy != w3.Energy || w1.ForwardPasses != w3.ForwardPasses {
		t.Fatalf("Workers 1 and 3 disagree: energy %v vs %v, %d vs %d forward passes",
			w1.Energy, w3.Energy, w1.ForwardPasses, w3.ForwardPasses)
	}
	if naive := run("auto-naive", 2); naive.ForwardPasses != n*w1.ForwardPasses {
		t.Fatalf("auto-naive: %d forward passes, want %d x %d", naive.ForwardPasses, n, w1.ForwardPasses)
	}
	// The same at 2 devices, for the ancestral and for a Markov sampler.
	for _, model := range []string{"made", "rbm"} {
		runDist := func(workers int) *Result {
			res, err := TrainDistributed(p, Options{
				Model: model, Hidden: 8, Iterations: 12, EvalBatch: 48, Workers: workers, Seed: 22,
			}, 2, 24)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		w1, w3 := runDist(1), runDist(3)
		if !slices.Equal(w1.Curve, w3.Curve) || w1.Energy != w3.Energy ||
			!slices.Equal(w1.BestConfig, w3.BestConfig) || w1.ForwardPasses != w3.ForwardPasses {
			t.Fatalf("%s at 2 devices: Workers 1 and 3 disagree: energy %v vs %v, %d vs %d forward passes",
				model, w1.Energy, w3.Energy, w1.ForwardPasses, w3.ForwardPasses)
		}
	}
}

// coreTrain is Train as the facade wrote it before Train became
// TrainDistributed at one device: a core.Trainer over the first two splits
// of the seed's stream, model init from the first and samples from the
// second.
func coreTrain(t *testing.T, p *Problem, o Options) *Result {
	t.Helper()
	n := p.Sites()
	if err := o.fill(n); err != nil {
		t.Fatal(err)
	}
	r := rng.New(o.Seed)
	wf, err := nn.New(o.Model, n, o.Hidden, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	model := wf.(core.Model)
	smp, err := o.newSampler(n, model, o.Workers, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	opt, sr := o.buildOptimizer()
	tr := core.New(p.ham, model, smp, opt, core.Config{BatchSize: o.BatchSize, Workers: o.Workers, SR: sr})
	curve := tr.Train(o.Iterations, nil)
	mean, std, best, argBest := tr.EvaluateBest(o.EvalBatch)
	res := &Result{Energy: mean, Std: std, BestEnergy: best, BestConfig: argBest,
		ForwardPasses: smp.Cost().ForwardPasses}
	for _, s := range curve {
		res.Curve = append(res.Curve, IterationStat{Iteration: s.Iter, Batch: s.Batch,
			Energy: s.Energy, Std: s.Std, SRIters: s.SRIters, SRResidual: s.SRResidual})
	}
	if cut, ok := p.CutOf(mean); ok {
		res.Cut = cut
		res.BestCut, _ = p.CutOf(best)
	}
	return res
}

// TestTrainKeepsSerialBytes: Train runs on the distributed engine at one
// device, and every field of its Result equals what a core.Trainer built as
// the facade built one returns — on every route, at Workers 1 and 3, on TIM
// and on Max-Cut. TrainDistributed at one device with BatchSize as its
// mini-batch is Train.
func TestTrainKeepsSerialBytes(t *testing.T) {
	routes := []struct {
		name string
		o    Options
	}{
		{"made/auto", Options{}},
		{"made/auto-naive", Options{Sampler: "auto-naive"}},
		{"made/mcmc", Options{Sampler: "mcmc"}},
		{"rbm/mcmc", Options{Model: "rbm"}},
		{"rbm/gibbs", Options{Model: "rbm", Sampler: "gibbs"}},
		{"nade", Options{Model: "nade"}},
		{"rnn", Options{Model: "rnn"}},
		{"made/sr-cg", Options{Optimizer: "sgd", StochasticReconfig: true}},
	}
	problems := []struct {
		name string
		p    *Problem
	}{{"tim", TIM(6, 3)}, {"maxcut", MaxCut(7, 4)}}
	same := func(a, b *Result) bool {
		return slices.Equal(a.Curve, b.Curve) && a.Energy == b.Energy && a.Std == b.Std &&
			a.BestEnergy == b.BestEnergy && slices.Equal(a.BestConfig, b.BestConfig) &&
			a.Cut == b.Cut && a.BestCut == b.BestCut && a.ForwardPasses == b.ForwardPasses
	}
	for _, rt := range routes {
		for _, pb := range problems {
			for _, workers := range []int{1, 3} {
				o := rt.o
				o.Hidden, o.BatchSize, o.Iterations, o.EvalBatch, o.Workers, o.Seed = 8, 32, 6, 32, workers, 5
				want := coreTrain(t, pb.p, o)
				got, err := Train(pb.p, o)
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", rt.name, pb.name, workers, err)
				}
				if !same(got, want) {
					t.Fatalf("%s/%s/w%d: Train %+v\nwant the core.Trainer's %+v", rt.name, pb.name, workers, *got, *want)
				}
				one, err := TrainDistributed(pb.p, o, 1, o.BatchSize)
				if err != nil || !same(one, got) {
					t.Fatalf("%s/%s/w%d: TrainDistributed at one device differs from Train (err %v)", rt.name, pb.name, workers, err)
				}
			}
		}
	}
}

func TestQUBOFacade(t *testing.T) {
	p := RandomQUBO(10, 23)
	if p.Kind() != "qubo" || p.Sites() != 10 {
		t.Fatalf("accessors: %s %d", p.Kind(), p.Sites())
	}
	exactE, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	// Plain Adam gets trapped in a local optimum of this rugged landscape;
	// stochastic reconfiguration escapes it — the paper's observation that
	// natural gradient "proved essential for converging to a good local
	// optimum" (Section 5.3).
	res, err := Train(p, Options{
		Optimizer: "sgd", StochasticReconfig: true,
		BatchSize: 256, Iterations: 200, EvalBatch: 512,
		LearningRate: 0.05, Workers: 2, Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The best evaluation sample should reach the exhaustive optimum on a
	// 10-variable QUBO, and no sample may beat it.
	if res.BestEnergy > exactE+0.05*math.Abs(exactE) {
		t.Fatalf("QUBO best energy %v far from optimum %v", res.BestEnergy, exactE)
	}
	if res.BestEnergy < exactE-1e-9 {
		t.Fatalf("QUBO best energy %v below exhaustive optimum %v", res.BestEnergy, exactE)
	}
	if got := (&Problem{kind: "qubo", ham: p.ham}).ham.Diagonal(res.BestConfig); math.Abs(got-res.BestEnergy) > 1e-9 {
		t.Fatalf("BestConfig objective %v != BestEnergy %v", got, res.BestEnergy)
	}
}

func TestQUBOExplicitMatrix(t *testing.T) {
	// One-variable sanity: f(x) = -2x has optimum -2 at x=1.
	p := QUBO([]float64{-2}, 1)
	e, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	if e != -2 {
		t.Fatalf("optimum %v, want -2", e)
	}
}

func TestNADERoute(t *testing.T) {
	p := TIM(8, 25)
	exactE, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(p, Options{
		Model: "nade", Hidden: 16, BatchSize: 256, Iterations: 300,
		EvalBatch: 512, LearningRate: 0.05, Workers: 2, Seed: 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	gap := (res.Energy - exactE) / math.Abs(exactE)
	if gap > 0.08 {
		t.Fatalf("NADE energy %v vs exact %v (gap %.3f)", res.Energy, exactE, gap)
	}
}

func TestRNNRoute(t *testing.T) {
	p := TIM(8, 27)
	exactE, err := p.ExactGroundEnergy()
	if err != nil {
		t.Fatal(err)
	}
	// The recurrent parametrization needs a gentler learning rate than the
	// feed-forward models.
	res, err := Train(p, Options{
		Model: "rnn", Hidden: 16, BatchSize: 256, Iterations: 300,
		EvalBatch: 512, LearningRate: 0.02, Workers: 2, Seed: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	gap := (res.Energy - exactE) / math.Abs(exactE)
	if gap > 0.05 {
		t.Fatalf("RNN energy %v vs exact %v (gap %.3f)", res.Energy, exactE, gap)
	}
}

func TestGibbsSamplerRoute(t *testing.T) {
	p := TIM(6, 29)
	res, err := Train(p, Options{
		Model: "rbm", Sampler: "gibbs", BatchSize: 128, Iterations: 150,
		EvalBatch: 256, LearningRate: 0.02, Workers: 2, Seed: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve[len(res.Curve)-1].Energy >= res.Curve[0].Energy {
		t.Fatal("gibbs-sampled RBM training did not reduce energy")
	}
	// gibbs is RBM-only.
	if _, err := Train(p, Options{Model: "made", Sampler: "gibbs"}); err == nil {
		t.Fatal("made+gibbs should error")
	}
}

func TestSaveModel(t *testing.T) {
	p := TIM(5, 31)
	o := Options{BatchSize: 64, Iterations: 20, EvalBatch: 64, Workers: 1, Seed: 32}
	rows := []struct {
		name  string
		train func() (*Result, error)
	}{
		{"serial", func() (*Result, error) { return Train(p, o) }},
		{"distributed", func() (*Result, error) { return TrainDistributed(p, o, 2, 8) }},
		{"elastic", func() (*Result, error) {
			eo := o
			eo.Elastic = true
			return TrainDistributed(p, eo, 2, 8)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res, err := row.train()
			if err != nil {
				t.Fatal(err)
			}
			if res.ForwardPasses <= 0 {
				t.Fatalf("ForwardPasses = %d, want the sampling work of the run", res.ForwardPasses)
			}
			path := t.TempDir() + "/model.pvq"
			if err := res.SaveModel(path); err != nil {
				t.Fatal(err)
			}
			back, err := nn.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, got := res.model.Params(), back.Params()
			if len(got) != len(want) {
				t.Fatalf("reloaded %d parameters, trained %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("param %d: reloaded %v != trained %v", i, got[i], want[i])
				}
			}
		})
	}
	if err := (&Result{}).SaveModel(t.TempDir() + "/model.pvq"); err == nil {
		t.Fatal("empty result should refuse to save")
	}
}
