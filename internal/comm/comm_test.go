package comm

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// runCollective executes body on every rank concurrently.
func runCollective(g *Group, body func(c *Comm)) {
	var wg sync.WaitGroup
	wg.Add(g.Size())
	for r := 0; r < g.Size(); r++ {
		go func(r int) {
			defer wg.Done()
			body(g.Rank(r))
		}(r)
	}
	wg.Wait()
}

func TestAllReduceSumMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for _, n := range []int{1, 2, 5, 64, 1000} {
			r := rng.New(uint64(p*1000 + n))
			data := make([][]float64, p)
			want := make([]float64, n)
			for rank := range data {
				data[rank] = make([]float64, n)
				r.FillUniform(data[rank], -1, 1)
				for i, v := range data[rank] {
					want[i] += v
				}
			}
			g := NewGroup(p)
			runCollective(g, func(c *Comm) {
				c.AllReduceSum(data[c.Rank()])
			})
			for rank := 0; rank < p; rank++ {
				for i := range want {
					if math.Abs(data[rank][i]-want[i]) > 1e-9 {
						t.Fatalf("p=%d n=%d rank %d elem %d: %v want %v",
							p, n, rank, i, data[rank][i], want[i])
					}
				}
			}
		}
	}
}

func TestNaiveAllReduceMatchesRing(t *testing.T) {
	p, n := 5, 200
	r := rng.New(9)
	ring := make([][]float64, p)
	naive := make([][]float64, p)
	for rank := 0; rank < p; rank++ {
		ring[rank] = make([]float64, n)
		r.FillUniform(ring[rank], -1, 1)
		naive[rank] = append([]float64(nil), ring[rank]...)
	}
	g1 := NewGroup(p)
	runCollective(g1, func(c *Comm) { c.AllReduceSum(ring[c.Rank()]) })
	g2 := NewGroup(p)
	runCollective(g2, func(c *Comm) { c.NaiveAllReduceSum(naive[c.Rank()]) })
	for rank := 0; rank < p; rank++ {
		for i := 0; i < n; i++ {
			if math.Abs(ring[rank][i]-naive[rank][i]) > 1e-9 {
				t.Fatalf("ring and naive disagree at rank %d elem %d", rank, i)
			}
		}
	}
}

// TestRingMatchesNaiveProperty is a property test over random vector
// lengths chosen to NOT be divisible by the group size — the chunk-boundary
// edge cases of the ring algorithm, including lengths smaller than the
// group (empty chunks) — for group sizes 1, 2, 3, and 7. The chunked ring
// and the gather-broadcast reference must agree elementwise on every rank.
func TestRingMatchesNaiveProperty(t *testing.T) {
	r := rng.New(424242)
	for _, p := range []int{1, 2, 3, 7} {
		lengths := []int{1, 2, p - 1, p + 1} // deliberate sub- and near-group sizes
		for trial := 0; trial < 16; trial++ {
			lengths = append(lengths, 1+r.Intn(200))
		}
		for _, n := range lengths {
			if n < 1 {
				continue
			}
			if p > 1 && n%p == 0 {
				n++ // force a ragged chunking
			}
			ring := make([][]float64, p)
			naive := make([][]float64, p)
			for rank := 0; rank < p; rank++ {
				ring[rank] = make([]float64, n)
				r.FillUniform(ring[rank], -10, 10)
				naive[rank] = append([]float64(nil), ring[rank]...)
			}
			g1 := NewGroup(p)
			runCollective(g1, func(c *Comm) { c.AllReduceSum(ring[c.Rank()]) })
			g2 := NewGroup(p)
			runCollective(g2, func(c *Comm) { c.NaiveAllReduceSum(naive[c.Rank()]) })
			for rank := 0; rank < p; rank++ {
				for i := 0; i < n; i++ {
					if math.Abs(ring[rank][i]-naive[rank][i]) > 1e-9 {
						t.Fatalf("p=%d n=%d rank=%d elem=%d: ring %v naive %v",
							p, n, rank, i, ring[rank][i], naive[rank][i])
					}
				}
			}
			// All ranks of the ring result must also be bit-identical to
			// each other — the invariant the dist trainer builds on.
			for rank := 1; rank < p; rank++ {
				for i := 0; i < n; i++ {
					if ring[rank][i] != ring[0][i] {
						t.Fatalf("p=%d n=%d: ranks 0 and %d differ bitwise at elem %d",
							p, n, rank, i)
					}
				}
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		for root := 0; root < p; root++ {
			data := make([][]float64, p)
			for rank := range data {
				data[rank] = []float64{float64(rank), float64(rank * 2)}
			}
			g := NewGroup(p)
			runCollective(g, func(c *Comm) { c.Broadcast(data[c.Rank()], root) })
			for rank := 0; rank < p; rank++ {
				if data[rank][0] != float64(root) || data[rank][1] != float64(root*2) {
					t.Fatalf("p=%d root=%d rank=%d got %v", p, root, rank, data[rank])
				}
			}
		}
	}
}

func TestBarrierCompletes(t *testing.T) {
	g := NewGroup(6)
	done := make(chan struct{})
	go func() {
		runCollective(g, func(c *Comm) {
			for i := 0; i < 10; i++ {
				c.Barrier()
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier deadlocked")
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// The same group must be reusable for many rounds without deadlock or
	// cross-round interference.
	p, n := 4, 33
	g := NewGroup(p)
	data := make([][]float64, p)
	for rank := range data {
		data[rank] = make([]float64, n)
	}
	runCollective(g, func(c *Comm) {
		for round := 0; round < 50; round++ {
			x := data[c.Rank()]
			for i := range x {
				x[i] = float64(c.Rank() + round)
			}
			c.AllReduceSum(x)
			// Sum over ranks of (rank + round) = p*round + p(p-1)/2.
			want := float64(p*round + p*(p-1)/2)
			for i := range x {
				if x[i] != want {
					t.Errorf("round %d rank %d: got %v want %v", round, c.Rank(), x[i], want)
					return
				}
			}
		}
	})
}

// TestAllReduceSumSteadyStateAllocs pins the chunk recycling of the ring: a
// rank sends each chunk in the buffer it last received, so once the
// circulating buffers have grown to the largest chunk a two-rank all-reduce
// allocates nothing — over the payload lengths an SR step alternates between
// (2 energy sums, gradient | O-row sum, Fisher sweep d+1) — and every reduced
// element is still the exact sum.
func TestAllReduceSumSteadyStateAllocs(t *testing.T) {
	lens := []int{2, 2540, 1271}
	g := NewGroup(2)
	c0, c1 := g.Rank(0), g.Rank(1)
	release, done := make(chan struct{}), make(chan struct{})
	round := func(c *Comm, x []float64) {
		for _, n := range lens {
			for i := range x[:n] {
				x[i] = float64(i + c.Rank())
			}
			if err := c.AllReduceSum(x[:n]); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			for i, v := range x[:n] {
				if v != float64(2*i+1) {
					t.Errorf("rank %d len %d: x[%d] = %v, want %v", c.Rank(), n, i, v, float64(2*i+1))
					return
				}
			}
		}
	}
	go func() {
		defer close(done)
		x1 := make([]float64, lens[1])
		for range release {
			round(c1, x1)
		}
	}()
	x0 := make([]float64, lens[1])
	call := func() {
		release <- struct{}{}
		round(c0, x0)
	}
	for i := 0; i < 3; i++ {
		call() // grow the circulating buffers
	}
	allocs := testing.AllocsPerRun(50, call)
	close(release)
	<-done
	if allocs != 0 {
		t.Fatalf("warmed two-rank AllReduceSum rounds allocate %v times, want 0", allocs)
	}
}

func TestTrafficAccounting(t *testing.T) {
	p, n := 4, 100
	g := NewGroup(p)
	var bytes [4]int64
	data := make([][]float64, p)
	for rank := range data {
		data[rank] = make([]float64, n)
	}
	runCollective(g, func(c *Comm) {
		c.AllReduceSum(data[c.Rank()])
		bytes[c.Rank()] = c.BytesSent()
	})
	// Ring all-reduce sends 2(p-1) chunks of ~n/p elements per rank.
	wantApprox := int64(2 * (p - 1) * (n / p) * 8)
	for rank, b := range bytes {
		if b < wantApprox-64 || b > wantApprox+64 {
			t.Fatalf("rank %d sent %d bytes, want ~%d", rank, b, wantApprox)
		}
	}
}

func TestRankBounds(t *testing.T) {
	g := NewGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range rank")
		}
	}()
	g.Rank(2)
}

func BenchmarkRingAllReduce8x4096(b *testing.B) {
	g := NewGroup(8)
	data := make([][]float64, 8)
	for i := range data {
		data[i] = make([]float64, 4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCollective(g, func(c *Comm) { c.AllReduceSum(data[c.Rank()]) })
	}
}

func BenchmarkNaiveAllReduce8x4096(b *testing.B) {
	g := NewGroup(8)
	data := make([][]float64, 8)
	for i := range data {
		data[i] = make([]float64, 4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCollective(g, func(c *Comm) { c.NaiveAllReduceSum(data[c.Rank()]) })
	}
}
