package graph

import (
	"math"
	"slices"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

func TestAddEdgeSymmetric(t *testing.T) {
	// Either orientation is stored once, U < V; the edge list is the only
	// store, so a repeated pair is a second entry.
	g := New(4)
	g.AddEdge(2, 0, 1.5)
	g.AddEdge(0, 2, -1)
	if want := []Edge{{U: 0, V: 2, W: 1.5}, {U: 0, V: 2, W: -1}}; !slices.Equal(g.Edges, want) {
		t.Fatalf("edge list %v, want %v", g.Edges, want)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on self loop")
		}
	}()
	New(3).AddEdge(1, 1, 1)
}

func TestRandomBernoulliProperties(t *testing.T) {
	r := rng.New(99)
	n := 60
	g := RandomBernoulli(n, r)
	// Unit weights, no self loops, each pair at most once: the edges come
	// in strictly increasing row-major (U, V) order with U < V < n.
	for k, e := range g.Edges {
		if e.U >= e.V || e.V >= n || e.W != 1 {
			t.Fatalf("edge %d = %+v", k, e)
		}
		if k > 0 {
			p := g.Edges[k-1]
			if p.U > e.U || (p.U == e.U && p.V >= e.V) {
				t.Fatalf("edge %d = %+v after %+v", k, e, p)
			}
		}
	}
	// Edge probability should be about 3/4 (B_ij + B_ji >= 1).
	pairs := float64(n * (n - 1) / 2)
	density := float64(len(g.Edges)) / pairs
	if math.Abs(density-0.75) > 0.05 {
		t.Errorf("edge density %v, want ~0.75", density)
	}
}

func TestRandomBernoulliDeterministic(t *testing.T) {
	g1 := RandomBernoulli(20, rng.New(5))
	g2 := RandomBernoulli(20, rng.New(5))
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatal("same seed produced different graphs")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestCutValueTriangle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	// Any 2-1 split of a triangle cuts exactly 2 edges.
	for _, x := range [][]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if got := g.CutValue(x); got != 2 {
			t.Errorf("CutValue(%v) = %v, want 2", x, got)
		}
	}
	if g.CutValue([]int{0, 0, 0}) != 0 {
		t.Error("empty cut should be 0")
	}
}

func TestCutComplementInvariance(t *testing.T) {
	r := rng.New(4)
	g := RandomBernoulli(12, r)
	x := make([]int, g.N)
	y := make([]int, g.N)
	for i := range x {
		x[i] = r.Bit()
		y[i] = 1 - x[i]
	}
	if g.CutValue(x) != g.CutValue(y) {
		t.Fatal("cut not invariant under complement")
	}
}

func TestDegreeAndTotalWeight(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	if want := []Edge{{U: 0, V: 1, W: 2}, {U: 0, V: 2, W: 3}}; !slices.Equal(g.Edges, want) {
		t.Errorf("edge list %v, want %v", g.Edges, want)
	}
	if g.TotalWeight() != 5 {
		t.Errorf("TotalWeight = %v", g.TotalWeight())
	}
}
