package maxcut

import (
	"slices"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func exhaustiveMaxCut(g *graph.Graph) float64 {
	x := make([]int, g.N)
	best := 0.0
	for ix := 0; ix < 1<<uint(g.N); ix++ {
		hamiltonian.IndexToBits(ix, x)
		if c := g.CutValue(x); c > best {
			best = c
		}
	}
	return best
}

func TestRandomCutNearHalf(t *testing.T) {
	r := rng.New(1)
	g := graph.RandomBernoulli(100, r)
	var total float64
	const runs = 50
	for i := 0; i < runs; i++ {
		total += random(g, Config{}, r).Cut
	}
	mean := total / runs
	want := g.TotalWeight() / 2
	if mean < 0.93*want || mean > 1.07*want {
		t.Fatalf("random cut mean %v, want ~%v", mean, want)
	}
}

func TestGWBeatsRandomAndRespectsOptimum(t *testing.T) {
	r := rng.New(2)
	g := graph.RandomBernoulli(14, r)
	opt := exhaustiveMaxCut(g)
	res := goemansWilliamson(g, Config{}, r)
	if res.Cut > opt {
		t.Fatalf("GW cut %v exceeds optimum %v", res.Cut, opt)
	}
	// GW guarantee is 0.878 * SDP >= 0.878 * OPT in expectation; with 50
	// roundings on a small graph it should do much better than random.
	if res.Cut < 0.878*opt {
		t.Fatalf("GW cut %v below 0.878*opt (%v)", res.Cut, 0.878*opt)
	}
	if res.SDPBound < opt-1e-6 {
		t.Fatalf("SDP bound %v below optimum %v", res.SDPBound, opt)
	}
}

func TestBMFindsOptimumOnSmallGraphs(t *testing.T) {
	for seed := uint64(3); seed < 6; seed++ {
		r := rng.New(seed)
		g := graph.RandomBernoulli(12, r)
		opt := exhaustiveMaxCut(g)
		res := burerMonteiro(g, Config{}, r)
		if res.Cut != opt {
			t.Fatalf("seed %d: BM cut %v, optimum %v", seed, res.Cut, opt)
		}
	}
}

func TestBMAtLeastGW(t *testing.T) {
	r1, r2 := rng.New(7), rng.New(7)
	g := graph.RandomBernoulli(20, rng.New(8))
	gw := goemansWilliamson(g, Config{}, r1)
	bm := burerMonteiro(g, Config{}, r2)
	if bm.Cut < gw.Cut {
		t.Fatalf("BM (%v) worse than GW (%v)", bm.Cut, gw.Cut)
	}
}

func TestLocalSearchNeverDecreases(t *testing.T) {
	r := rng.New(9)
	g := graph.RandomBernoulli(30, r)
	x := make([]int, g.N)
	r.FillBits(x)
	before := g.CutValue(x)
	after := localSearch(g, x)
	if after < before {
		t.Fatalf("local search decreased cut: %v -> %v", before, after)
	}
	// 1-swap local optimality: no single flip improves.
	runs := neighbourRuns(g)
	for i := 0; i < g.N; i++ {
		if flipGain(runs, x, i) > 1e-9 {
			t.Fatalf("vertex %d still has positive gain", i)
		}
	}
}

// denseFlipGain is the gain local search computed before the neighbour
// runs: a scan of vertex i's row of the n x n weight matrix w, in
// ascending j, skipping zero entries.
func denseFlipGain(w []float64, n int, x []int, i int) float64 {
	var d float64
	for j := 0; j < n; j++ {
		wij := w[i*n+j]
		if wij == 0 {
			continue
		}
		if x[i] == x[j] {
			d += wij
		} else {
			d -= wij
		}
	}
	return d
}

// TestLocalSearchMatchesDenseReference pins local search over neighbour
// runs to the dense-row search it replaced, bit for bit. The weights are
// non-dyadic, some negative and some zero, and the edges are added in a
// shuffled order with random orientation, so a run summed in any order but
// ascending j would round differently. The reference runs the same greedy
// loop over the dense matrix; at every state it visits, the runs' gain of
// every vertex must == the reference's, and the final cut and assignment
// of localSearch must == the reference's.
func TestLocalSearchMatchesDenseReference(t *testing.T) {
	for _, n := range []int{2, 3, 17, 64} {
		for seed := uint64(0); seed < 5; seed++ {
			r := rng.New(1000*uint64(n) + seed)
			var pairs [][2]int
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if r.Float64() < 0.7 {
						pairs = append(pairs, [2]int{u, v})
					}
				}
			}
			perm := make([]int, len(pairs))
			r.Perm(perm)
			g := graph.New(n)
			w := make([]float64, n*n)
			for _, k := range perm {
				u, v := pairs[k][0], pairs[k][1]
				wt := 0.0
				if r.Float64() >= 0.15 {
					wt = r.Uniform(-0.7, 1.9)
				}
				if r.Bit() == 1 {
					u, v = v, u
				}
				g.AddEdge(u, v, wt)
				w[u*n+v], w[v*n+u] = wt, wt
			}
			x0 := make([]int, n)
			r.FillBits(x0)

			runs := neighbourRuns(g)
			x := slices.Clone(x0)
			gain := make([]float64, n)
			for i := range gain {
				gain[i] = denseFlipGain(w, n, x, i)
			}
			for steps := 0; ; steps++ {
				for i := range gain {
					if got := flipGain(runs, x, i); got != gain[i] {
						t.Fatalf("n=%d seed=%d step %d: gain[%d] = %v, dense reference %v", n, seed, steps, i, got, gain[i])
					}
				}
				best, bestGain := -1, 1e-12
				for i := range gain {
					if gain[i] > bestGain {
						best, bestGain = i, gain[i]
					}
				}
				if best < 0 {
					break
				}
				x[best] = 1 - x[best]
				gain[best] = -gain[best]
				for j := 0; j < n; j++ {
					if j != best && w[best*n+j] != 0 {
						gain[j] = denseFlipGain(w, n, x, j)
					}
				}
			}
			y := slices.Clone(x0)
			if cut, want := localSearch(g, y), g.CutValue(x); cut != want || !slices.Equal(y, x) {
				t.Fatalf("n=%d seed=%d: localSearch cut %v assignment %v, dense reference %v %v", n, seed, cut, y, want, x)
			}
		}
	}
}

func TestLocalSearchReachesHalfGuarantee(t *testing.T) {
	// A 1-swap local optimum cuts at least half the total weight.
	r := rng.New(10)
	g := graph.RandomBernoulli(40, r)
	x := make([]int, g.N)
	cut := localSearch(g, x) // start from all-zero (cut 0)
	if cut < g.TotalWeight()/2 {
		t.Fatalf("local optimum %v below W/2 = %v", cut, g.TotalWeight()/2)
	}
}

func TestAssignmentsAreValid(t *testing.T) {
	r := rng.New(11)
	g := graph.RandomBernoulli(10, r)
	for _, res := range []Result{
		random(g, Config{}, r),
		goemansWilliamson(g, Config{Rounds: 5, MaxIter: 50}, r),
		burerMonteiro(g, Config{Rounds: 5, MaxIter: 20}, r),
	} {
		if len(res.Assignment) != g.N {
			t.Fatal("wrong assignment length")
		}
		if g.CutValue(res.Assignment) != res.Cut {
			t.Fatalf("reported cut %v != assignment cut %v", res.Cut, g.CutValue(res.Assignment))
		}
	}
}

// TestSolveMatchesNamedSolver pins Solve to the solver each name selects:
// under the zero Config and a non-zero one, cut, assignment and bound are
// == those of the direct call on the same stream. Unknown and empty names
// are errors.
func TestSolveMatchesNamedSolver(t *testing.T) {
	g := graph.RandomBernoulli(16, rng.New(12))
	named := map[string]func(*graph.Graph, Config, *rng.Rand) Result{
		"random": random, "gw": goemansWilliamson, "bm": burerMonteiro,
	}
	if got := Methods(); !slices.Equal(got, []string{"random", "gw", "bm"}) {
		t.Fatalf("Methods() = %v", got)
	}
	for _, method := range Methods() {
		for _, cfg := range []Config{{}, {Rank: 3, Rounds: 7, MaxIter: 30, LocalSwap: true}} {
			got, err := Solve(g, method, cfg, rng.New(13))
			if err != nil {
				t.Fatalf("%s %+v: %v", method, cfg, err)
			}
			want := named[method](g, cfg, rng.New(13))
			if got.Cut != want.Cut || got.SDPBound != want.SDPBound || !slices.Equal(got.Assignment, want.Assignment) {
				t.Fatalf("%s %+v: Solve %+v != direct %+v", method, cfg, got, want)
			}
		}
	}
	for _, method := range []string{"quantum", "", "GW"} {
		if _, err := Solve(g, method, Config{}, rng.New(1)); err == nil {
			t.Fatalf("method %q: want an error", method)
		}
	}
}

func BenchmarkBurerMonteiro100(b *testing.B) {
	g := graph.RandomBernoulli(100, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burerMonteiro(g, Config{MaxIter: 40, Rounds: 30}, rng.New(uint64(i)))
	}
}

func BenchmarkGoemansWilliamson100(b *testing.B) {
	g := graph.RandomBernoulli(100, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		goemansWilliamson(g, Config{MaxIter: 200, Rounds: 30}, rng.New(uint64(i)))
	}
}
