package serve

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/vqmc-scale/parvqmc/internal/graph"
	"github.com/vqmc-scale/parvqmc/internal/maxcut"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// MaxCutEdge is one weighted undirected edge of a Max-Cut instance.
type MaxCutEdge struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

// MaxCutRequest describes one Max-Cut solve. Edges names each unordered
// vertex pair at most once; a repeat, in either orientation, is
// ErrBadRequest. Algorithm selects the solver, one of maxcut.Methods
// ("random", "gw" Goemans-Williamson, "bm" Burer-Monteiro; default "gw");
// the remaining knobs are maxcut.Config's, with zero-value defaults, and
// are bounded: Rank to [0, N], Rounds and MaxIter to [0, 10 000].
// Seed pins the RNG: the same request always produces the same cut,
// bitwise — the serving doctrine applied to the solver endpoint.
type MaxCutRequest struct {
	N         int          `json:"n"`
	Edges     []MaxCutEdge `json:"edges"`
	Algorithm string       `json:"algorithm,omitempty"`
	Rank      int          `json:"rank,omitempty"`
	Rounds    int          `json:"rounds,omitempty"`
	MaxIter   int          `json:"max_iter,omitempty"`
	LocalSwap bool         `json:"local_swap,omitempty"`
	Seed      uint64       `json:"seed"`
}

// MaxCutResult is a served cut.
type MaxCutResult struct {
	Cut        float64 `json:"cut"`
	Assignment []int   `json:"assignment"`
	SDPBound   float64 `json:"sdp_bound,omitempty"`
	Algorithm  string  `json:"algorithm"`
}

// maxCutIters bounds a MaxCutRequest's Rounds and MaxIter, so that no
// request can hold a solver slot indefinitely.
const maxCutIters = 10_000

// validateMaxCut checks the request shape without allocating anything
// request-sized: vertex bounds (including the server's MaxCutNodes cap),
// edge endpoints, the knob bounds and the algorithm name. The rank bound
// matters most: the n x rank SDP factorization is the only request-sized
// n^2 state, reached when a request asks for a rank near n; everything
// else a solve holds is O(n + |E|). It returns the resolved algorithm.
func validateMaxCut(req MaxCutRequest, maxNodes int) (string, error) {
	if req.N < 2 {
		return "", fmt.Errorf("%w: maxcut n=%d", ErrBadRequest, req.N)
	}
	if req.N > maxNodes {
		return "", fmt.Errorf("%w: maxcut n=%d exceeds server cap %d", ErrBadRequest, req.N, maxNodes)
	}
	if len(req.Edges) == 0 {
		return "", fmt.Errorf("%w: maxcut instance has no edges", ErrBadRequest)
	}
	for i, e := range req.Edges {
		if e.U < 0 || e.U >= req.N || e.V < 0 || e.V >= req.N || e.U == e.V {
			return "", fmt.Errorf("%w: edge %d (%d,%d) out of range for n=%d", ErrBadRequest, i, e.U, e.V, req.N)
		}
	}
	if req.Rank < 0 || req.Rank > req.N {
		return "", fmt.Errorf("%w: maxcut rank %d outside [0, n=%d]", ErrBadRequest, req.Rank, req.N)
	}
	if req.Rounds < 0 || req.Rounds > maxCutIters || req.MaxIter < 0 || req.MaxIter > maxCutIters {
		return "", fmt.Errorf("%w: maxcut rounds %d / max_iter %d outside [0, %d]", ErrBadRequest, req.Rounds, req.MaxIter, maxCutIters)
	}
	algo := req.Algorithm
	if algo == "" {
		algo = "gw"
	}
	if !slices.Contains(maxcut.Methods(), algo) {
		return "", fmt.Errorf("%w: unknown algorithm %q", ErrBadRequest, algo)
	}
	return algo, nil
}

// buildGraph assembles a validated request's graph inside a pool slot. A
// repeated unordered pair, in either orientation, is a bad request: the
// graph would add the two weights, and a request names each pair once.
func buildGraph(req MaxCutRequest) (*graph.Graph, error) {
	g := graph.New(req.N)
	seen := make(map[[2]int]struct{}, len(req.Edges))
	for i, e := range req.Edges {
		pair := [2]int{min(e.U, e.V), max(e.U, e.V)}
		if _, ok := seen[pair]; ok {
			return nil, fmt.Errorf("%w: edge %d repeats the pair (%d,%d)", ErrBadRequest, i, pair[0], pair[1])
		}
		seen[pair] = struct{}{}
		g.AddEdge(pair[0], pair[1], e.W)
	}
	return g, nil
}

// SolveMaxCut runs one Max-Cut solve through the solver pool. Concurrency
// is bounded by ServerConfig.MaxSolves (admission control for the
// CPU-heavy endpoint: beyond the bound the request is rejected with
// ErrOverloaded rather than queued without bound), and admission happens
// before the graph is built, so even the largest admissible instance only
// allocates inside a pool slot. The result is bitwise identical to a
// direct maxcut.Solve with the same configuration and rng.New(req.Seed).
// Finite weights can still overflow the solver's float64 arithmetic; a
// cut or SDP bound that comes out infinite or NaN is ErrBadRequest, never
// a 500 from a response JSON cannot carry.
func (s *Server) SolveMaxCut(ctx context.Context, req MaxCutRequest) (MaxCutResult, error) {
	algo, err := validateMaxCut(req, s.cfg.MaxCutNodes)
	if err != nil {
		return MaxCutResult{}, err
	}
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return MaxCutResult{}, ErrDraining
	}
	select {
	case s.solves <- struct{}{}:
		s.solveWG.Add(1)
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		return MaxCutResult{}, fmt.Errorf("%w: maxcut solver pool full", ErrOverloaded)
	}
	defer func() {
		<-s.solves
		s.solveWG.Done()
	}()
	if err := ctx.Err(); err != nil {
		return MaxCutResult{}, err
	}
	g, err := buildGraph(req)
	if err != nil {
		return MaxCutResult{}, err
	}
	res, err := maxcut.Solve(g, algo, maxcut.Config{
		Rank: req.Rank, Rounds: req.Rounds, MaxIter: req.MaxIter, LocalSwap: req.LocalSwap,
	}, rng.New(req.Seed))
	if err != nil {
		return MaxCutResult{}, err
	}
	if !finite(res.Cut) || !finite(res.SDPBound) {
		return MaxCutResult{}, fmt.Errorf("%w: maxcut weights overflow the solver's float64 range (cut %v, sdp bound %v)",
			ErrBadRequest, res.Cut, res.SDPBound)
	}
	return MaxCutResult{Cut: res.Cut, Assignment: res.Assignment, SDPBound: res.SDPBound, Algorithm: algo}, nil
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
