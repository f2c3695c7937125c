// Package maxcut assembles the classical Max-Cut baselines of the paper's
// Table 2 behind one entry point, Solve: the random 0.5-approximation
// ("random"), Goemans-Williamson SDP rounding ("gw") and the
// Burer-Monteiro low-rank pipeline with Riemannian trust-region
// optimization ("bm"), plus the 1-swap local search used to polish
// rounded cuts. The semidefinite relaxation both SDP methods solve lives
// in sdp.go.
package maxcut

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// Result is a cut produced by one of the solvers.
type Result struct {
	Cut        float64
	Assignment []int
	// SDPBound is the relaxation value when an SDP was solved (else 0);
	// it upper-bounds the maximum cut at the relaxation optimum.
	SDPBound float64
}

// Config tunes the SDP methods; "random" ignores it. Zero values select
// each method's defaults.
type Config struct {
	Rank    int // factorization rank (default ceil(sqrt(2n))+1)
	Rounds  int // random hyperplanes tried (default: gw 50, bm 200)
	MaxIter int // gw: Riemannian GD iterations (default 500); bm: trust-region outer iterations (default 200)
	// LocalSwap polishes gw's rounded cut with 1-swap local search; bm
	// always polishes.
	LocalSwap bool
}

// solvers is the one list of method names Solve accepts.
var solvers = []struct {
	name  string
	solve func(*graph.Graph, Config, *rng.Rand) Result
}{
	{"random", random},
	{"gw", goemansWilliamson},
	{"bm", burerMonteiro},
}

// Methods returns the names Solve accepts, in a fixed order: "random",
// "gw" (Goemans-Williamson) and "bm" (Burer-Monteiro).
func Methods() []string {
	names := make([]string, len(solvers))
	for i, s := range solvers {
		names[i] = s.name
	}
	return names
}

// Solve runs the named method on g, drawing every random number from r:
// the same graph, method, configuration and stream give the same Result,
// bit for bit. An unknown name is an error.
func Solve(g *graph.Graph, method string, cfg Config, r *rng.Rand) (Result, error) {
	for _, s := range solvers {
		if s.name == method {
			return s.solve(g, cfg, r), nil
		}
	}
	return Result{}, fmt.Errorf("maxcut: unknown method %q (want %s)", method, strings.Join(Methods(), ", "))
}

// random assigns each vertex to a side uniformly at random: the classical
// 0.5-approximation (in expectation it cuts half the total weight).
func random(g *graph.Graph, _ Config, r *rng.Rand) Result {
	x := make([]int, g.N)
	r.FillBits(x)
	return Result{Cut: g.CutValue(x), Assignment: x}
}

// withDefaults fills cfg's zero knobs with a method's defaults on an
// n-vertex graph.
func (cfg Config) withDefaults(n, rounds, maxIter int) Config {
	if cfg.Rank <= 0 {
		cfg.Rank = defaultRank(n)
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = rounds
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = maxIter
	}
	return cfg
}

// goemansWilliamson solves the Max-Cut SDP relaxation (via the
// Burer-Monteiro factorization and Riemannian gradient descent, replacing
// the paper's CVXPY interior-point solver) and rounds with random
// hyperplanes, keeping the best cut.
func goemansWilliamson(g *graph.Graph, cfg Config, r *rng.Rand) Result {
	cfg = cfg.withDefaults(g.N, 50, 500)
	p := newProblem(g)
	f := newFactorization(g.N, cfg.Rank, r)
	p.gradientDescent(f, cfg.MaxIter, 1e-5)
	res := roundBest(g, p, f, cfg.Rounds, r)
	if cfg.LocalSwap {
		res.Cut = localSearch(g, res.Assignment)
	}
	return res
}

// burerMonteiro runs the stronger baseline: the same low-rank SDP solved to
// higher accuracy with the Riemannian trust-region method (Manopt's
// algorithm), many roundings, and 1-swap local search — mirroring the
// paper's near-deterministic BM results.
func burerMonteiro(g *graph.Graph, cfg Config, r *rng.Rand) Result {
	cfg = cfg.withDefaults(g.N, 200, 200)
	p := newProblem(g)
	f := newFactorization(g.N, cfg.Rank, r)
	// Warm start with a little gradient descent, then polish with RTR.
	p.gradientDescent(f, 50, 1e-2)
	p.trustRegion(f, cfg.MaxIter, 1e-7)
	res := roundBest(g, p, f, cfg.Rounds, r)
	res.Cut = localSearch(g, res.Assignment)
	return res
}

func roundBest(g *graph.Graph, p *problem, f *factorization, rounds int, r *rng.Rand) Result {
	x := make([]int, g.N)
	best := make([]int, g.N)
	bestCut := -1.0
	for t := 0; t < rounds; t++ {
		roundHyperplane(f, r, x)
		if c := g.CutValue(x); c > bestCut {
			bestCut = c
			copy(best, x)
		}
	}
	return Result{Cut: bestCut, Assignment: best, SDPBound: p.cutBound(f)}
}

// localSearch greedily flips single vertices while any flip improves the
// cut, modifying x in place and returning the final cut value. A flip
// recomputes only its neighbours' gains; the search terminates because the
// cut strictly increases.
func localSearch(g *graph.Graph, x []int) float64 {
	runs := neighbourRuns(g)
	// gain[i] = cut(x with i flipped) - cut(x)
	gain := make([]float64, g.N)
	for i := range gain {
		gain[i] = flipGain(runs, x, i)
	}
	for {
		best, bestGain := -1, 1e-12
		for i, gi := range gain {
			if gi > bestGain {
				best, bestGain = i, gi
			}
		}
		if best < 0 {
			break
		}
		x[best] = 1 - x[best]
		// Update gains of the flipped vertex and its neighbours.
		gain[best] = -gain[best]
		for _, e := range runs[best] {
			gain[e.j] = flipGain(runs, x, e.j)
		}
	}
	return g.CutValue(x)
}

// neighbour is one entry of a vertex's run: an edge of weight w to vertex j.
type neighbour struct {
	j int
	w float64
}

// neighbourRuns regroups g's edge list by vertex, CSR-style over one
// backing array: run i lists vertex i's neighbours ascending by index and
// leaves zero-weight edges out, so it holds the non-zero entries of
// adjacency row i in column order.
func neighbourRuns(g *graph.Graph) [][]neighbour {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		if e.W != 0 {
			deg[e.U]++
			deg[e.V]++
		}
	}
	runs, all := make([][]neighbour, g.N), make([]neighbour, 2*len(g.Edges))
	for i, d := range deg {
		runs[i], all = all[:0:d], all[d:]
	}
	for _, e := range g.Edges {
		if e.W != 0 {
			runs[e.U] = append(runs[e.U], neighbour{e.V, e.W})
			runs[e.V] = append(runs[e.V], neighbour{e.U, e.W})
		}
	}
	for _, run := range runs {
		slices.SortStableFunc(run, func(p, q neighbour) int { return cmp.Compare(p.j, q.j) })
	}
	return runs
}

// flipGain computes the cut change from flipping vertex i: edges to the
// same side become cut (+w), edges across become uncut (-w). The terms are
// added in ascending neighbour order, whatever the order of the edge list.
func flipGain(runs [][]neighbour, x []int, i int) float64 {
	var d float64
	for _, e := range runs[i] {
		if x[i] == x[e.j] {
			d += e.w
		} else {
			d -= e.w
		}
	}
	return d
}
