package comm

import (
	"math"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// TestIAllReduceMatchesBlocking checks that the non-blocking all-reduce
// produces exactly the bytes of the blocking one — same algorithm, same
// reduction order — for group sizes 1, 2, 3 and 7 and a ragged length.
func TestIAllReduceMatchesBlocking(t *testing.T) {
	const n = 103
	for _, p := range []int{1, 2, 3, 7} {
		r := rng.New(uint64(100 + p))
		syncData := make([][]float64, p)
		asyncData := make([][]float64, p)
		for rank := 0; rank < p; rank++ {
			syncData[rank] = make([]float64, n)
			r.FillUniform(syncData[rank], -10, 10)
			asyncData[rank] = append([]float64(nil), syncData[rank]...)
		}
		runCollective(NewGroup(p), func(c *Comm) { c.AllReduceSum(syncData[c.Rank()]) })
		runCollective(NewGroup(p), func(c *Comm) { c.IAllReduceSum(asyncData[c.Rank()]).Wait() })
		for rank := 0; rank < p; rank++ {
			for i := range syncData[rank] {
				if syncData[rank][i] != asyncData[rank][i] {
					t.Fatalf("p=%d rank %d elem %d: async %v != sync %v",
						p, rank, i, asyncData[rank][i], syncData[rank][i])
				}
			}
		}
	}
}

// TestIAllReduceOverlapsCompute pins the point of the non-blocking variant:
// local work performed between initiation and Wait proceeds while the
// reduction is in flight, and the reduced result is correct afterwards.
func TestIAllReduceOverlapsCompute(t *testing.T) {
	const p, n = 3, 64
	g := NewGroup(p)
	sums := make([]float64, p)
	runCollective(g, func(c *Comm) {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(c.Rank() + 1)
		}
		h := c.IAllReduceSum(x)
		// Overlap window: local compute that must not touch x.
		var local float64
		for i := 0; i < 1000; i++ {
			local += math.Sqrt(float64(i))
		}
		h.Wait()
		sums[c.Rank()] = x[0] + local - local
	})
	for rank := 0; rank < p; rank++ {
		if sums[rank] != 1+2+3 {
			t.Fatalf("rank %d reduced value %v, want 6", rank, sums[rank])
		}
	}
}

// TestIAllReduceBackToBack issues several async collectives in sequence per
// rank (each waited before the next starts) to verify the per-channel FIFO
// keeps successive reductions from interleaving even when ranks run ahead.
func TestIAllReduceBackToBack(t *testing.T) {
	const p, n, rounds = 4, 37, 8
	g := NewGroup(p)
	results := make([][]float64, p)
	runCollective(g, func(c *Comm) {
		got := make([]float64, rounds)
		for round := 0; round < rounds; round++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64((round+1)*(c.Rank()+1)) + float64(i)
			}
			h := c.IAllReduceSum(x)
			h.Wait()
			got[round] = x[0]
		}
		results[c.Rank()] = got
	})
	for rank := 0; rank < p; rank++ {
		for round := 0; round < rounds; round++ {
			want := float64((round + 1) * (1 + 2 + 3 + 4))
			if results[rank][round] != want {
				t.Fatalf("rank %d round %d: got %v want %v", rank, round, results[rank][round], want)
			}
		}
	}
}

// TestCollectiveAccounting verifies the sync/async counters and that async
// traffic equals blocking traffic.
func TestCollectiveAccounting(t *testing.T) {
	const p, n = 3, 48 // n divisible by p so every rank moves equal bytes
	g := NewGroup(p)
	runCollective(g, func(c *Comm) {
		x := make([]float64, n)
		c.AllReduceSum(x)
		c.IAllReduceSum(x).Wait()
		c.IAllReduceSum(x).Wait()
		sync, async := c.Collectives()
		if sync != 1 || async != 2 {
			t.Errorf("rank %d: collectives (%d,%d), want (1,2)", c.Rank(), sync, async)
		}
		// Each collective moves 2(p-1)/p of the vector: 2(p-1) chunk
		// messages of n/p elements each, n divisible by p here.
		wantBytes := int64(3 * 2 * (p - 1) * (n / p) * 8)
		if c.BytesSent() != wantBytes {
			t.Errorf("rank %d: %d bytes sent, want %d", c.Rank(), c.BytesSent(), wantBytes)
		}
	})
}

// TestOneOutstandingCollective demands a panic when a rank starts a second
// collective while one is still in flight — the interleaving guard.
func TestOneOutstandingCollective(t *testing.T) {
	g := NewGroup(2)
	c0, c1 := g.Rank(0), g.Rank(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		x := make([]float64, 4)
		c1.AllReduceSum(x)
	}()
	x := make([]float64, 4)
	h := c0.IAllReduceSum(x)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second collective with one in flight should panic")
			}
		}()
		c0.IAllReduceSum(make([]float64, 4))
	}()
	h.Wait()
	<-done
	// Double Wait is a bug too.
	defer func() {
		if recover() == nil {
			t.Error("second Wait should panic")
		}
	}()
	h.Wait()
}
