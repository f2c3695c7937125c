// Package graph holds the weighted undirected graphs of the paper's Max-Cut
// experiments as one edge list, builds the paper's dense random graphs and
// evaluates cuts.
//
// The paper constructs the adjacency matrix by sampling B_ij ~ Bernoulli(0.5)
// once, forming (B + B^T)/2, rounding, and zeroing the diagonal. Entries of
// (B+B^T)/2 lie in {0, 1/2, 1}; rounding half away from zero yields an edge
// whenever B_ij + B_ji >= 1, i.e. with probability 3/4.
package graph

import (
	"fmt"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// Edge is an undirected edge between vertices U < V with weight W.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted graph on vertices 0..N-1, stored as one
// edge list with U < V in every edge, so it costs O(N + |E|) memory.
type Graph struct {
	N     int
	Edges []Edge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph { return &Graph{N: n} }

// AddEdge appends the undirected edge {i, j} with weight w, stored with
// U < V. Every reader treats the edge list as a multigraph: a pair added
// twice contributes both weights.
func (g *Graph) AddEdge(i, j int, w float64) {
	if i == j {
		panic("graph: self loop")
	}
	if i > j {
		i, j = j, i
	}
	g.Edges = append(g.Edges, Edge{U: i, V: j, W: w})
}

// TotalWeight returns the sum of edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.Edges {
		s += e.W
	}
	return s
}

// RandomBernoulli builds the paper's random dense graph on n vertices:
// round((B+B^T)/2) with B_ij ~ Bernoulli(0.5), zero diagonal, unit weights.
func RandomBernoulli(n int, r *rng.Rand) *Graph {
	// B is drawn row-major, one bit per ordered pair. Rounding makes an
	// edge exactly when B_ij or B_ji is set, so a bool per entry suffices.
	b := make([]bool, n*n)
	for i := range b {
		b[i] = r.Bit() == 1
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// round((B_ij+B_ji)/2): 0->0, 1/2->1 (half away from zero), 1->1.
			if b[i*n+j] || b[j*n+i] {
				g.AddEdge(i, j, 1)
			}
		}
	}
	return g
}

// CutValue returns the total weight of edges crossing the bipartition
// defined by x, where x[i] in {0,1} is vertex i's side.
func (g *Graph) CutValue(x []int) float64 {
	if len(x) != g.N {
		panic(fmt.Sprintf("graph: assignment length %d != n %d", len(x), g.N))
	}
	var cut float64
	for _, e := range g.Edges {
		if x[e.U] != x[e.V] {
			cut += e.W
		}
	}
	return cut
}
