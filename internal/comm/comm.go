// Package comm provides the collective-communication layer for data-parallel
// VQMC: a group of in-process "ranks" connected by channels, with a real
// chunked ring all-reduce (reduce-scatter + all-gather), blocking and
// non-blocking. It stands in for NCCL/MPI in the paper's multi-GPU setup:
// the algorithm is the real one; only the transport is in-memory.
//
// Collectives return errors instead of hanging when the group degrades: a
// configurable deadline (Group.SetDeadline) bounds every blocking point, a
// group-level abort channel fans the first failure out to every rank —
// including the background goroutines of non-blocking collectives — and a
// fault-injection seam (Group.FailAt, Group.Delay) scripts rank deaths and
// stragglers so the failure paths are testable. See fault.go. On a healthy
// group with no deadline the behavior (and the fast path) is unchanged and
// every error is nil.
package comm

import (
	"fmt"
	"sync"
	"time"
)

// Group is a set of ranks that can perform collectives. Create it once,
// hand Rank endpoints to goroutines.
type Group struct {
	size  int
	right []chan []float64 // right[r]: messages flowing r -> (r+1)%size

	// Bounded-wait failure machinery (see fault.go). deadline bounds every
	// blocking point; abort is closed (once, with abortErr recorded first)
	// when any rank declares the group dead; failAt/delay are the scripted
	// per-rank fault plans; dead and coll are per-rank, owner-goroutine
	// state: which ranks have died and how many collectives each has begun.
	deadline time.Duration
	abort    chan struct{}
	abortMu  sync.Mutex
	abortErr error
	failAt   []int // collective index at which the rank dies; -1 = never
	delay    []time.Duration
	dead     []bool
	coll     []int
}

// NewGroup creates a communicator group of the given size.
func NewGroup(size int) *Group {
	if size < 1 {
		panic("comm: group size must be >= 1")
	}
	g := &Group{size: size}
	g.right = make([]chan []float64, size)
	for i := range g.right {
		g.right[i] = make(chan []float64, 1)
	}
	g.abort = make(chan struct{})
	g.failAt = make([]int, size)
	for i := range g.failAt {
		g.failAt[i] = -1
	}
	g.delay = make([]time.Duration, size)
	g.dead = make([]bool, size)
	g.coll = make([]int, size)
	return g
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.size }

// Rank returns the endpoint for rank r.
func (g *Group) Rank(r int) *Comm {
	if r < 0 || r >= g.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", r, g.size))
	}
	return &Comm{g: g, rank: r}
}

// Comm is one rank's endpoint. Methods must be called collectively: every
// rank of the group calls the same method with compatible arguments, in the
// same order. A Comm is owned by one goroutine: all collective calls
// (including Handle.Wait) must come from that goroutine, and at most one
// collective — blocking or non-blocking — may be in flight per rank at a
// time. Traffic and collective counters are safe to read once every
// outstanding Handle has been waited on.
type Comm struct {
	g    *Group
	rank int
	// traffic accounting
	bytesSent int64
	messages  int64
	// collective accounting: blocking calls vs non-blocking initiations.
	syncColl  int64
	asyncColl int64
	inflight  bool
	// spare is the ring chunk this rank last received and consumed. A
	// received slice belongs to its receiver, so it is the next send buffer
	// and a steady-state all-reduce allocates nothing.
	spare []float64
	// solo is the pre-completed handle a single-rank IAllReduceSum returns.
	solo Handle
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the group size.
func (c *Comm) Size() int { return c.g.size }

// BytesSent reports cumulative payload bytes sent by this rank.
func (c *Comm) BytesSent() int64 { return c.bytesSent }

// Messages reports cumulative messages sent by this rank.
func (c *Comm) Messages() int64 { return c.messages }

// Collectives reports how many blocking collectives this rank has completed
// and how many non-blocking ones it has initiated. The split is the
// pipelining metric: a latency-bound solve wants its per-iteration
// reductions on the async side, where Wait lands after useful local work.
func (c *Comm) Collectives() (sync, async int64) { return c.syncColl, c.asyncColl }

// begin marks a collective in flight, enforcing the one-outstanding-per-rank
// rule that keeps ring messages of successive collectives from interleaving.
// It is also the fault-injection choke point: it fails fast on an aborted
// group, and fires the rank's scripted death at the configured collective
// index (counted per rank across all collective kinds).
func (c *Comm) begin() error {
	if c.inflight {
		panic("comm: collective started while another is still in flight on this rank (Wait first)")
	}
	g := c.g
	if err := g.Err(); err != nil {
		return fmt.Errorf("comm: rank %d: collective on aborted group: %w", c.rank, err)
	}
	if g.dead[c.rank] {
		return fmt.Errorf("comm: rank %d is dead: %w", c.rank, ErrRankKilled)
	}
	seq := g.coll[c.rank]
	g.coll[c.rank]++
	if g.failAt[c.rank] >= 0 && seq >= g.failAt[c.rank] {
		g.dead[c.rank] = true
		return fmt.Errorf("comm: rank %d killed at collective %d: %w", c.rank, seq, ErrRankKilled)
	}
	c.inflight = true
	return nil
}

func (c *Comm) end() { c.inflight = false }

func (c *Comm) sendRight(data []float64) error {
	c.bytesSent += int64(len(data)) * 8
	c.messages++
	return c.sendOn(c.g.right[c.rank], data, (c.rank+1)%c.g.size)
}

// sendChunk sends a copy of x right, in the spare buffer when it is large
// enough (chunk sizes differ by one element at most within a collective, but
// successive collectives may differ in length).
func (c *Comm) sendChunk(x []float64) error {
	out := c.spare
	c.spare = nil
	if cap(out) < len(x) {
		out = make([]float64, len(x))
	}
	out = out[:len(x)]
	copy(out, x)
	return c.sendRight(out)
}

func (c *Comm) recvLeft() ([]float64, error) {
	left := (c.rank - 1 + c.g.size) % c.g.size
	return c.recvOn(c.g.right[left], left)
}

// chunkBounds splits [0,n) into p contiguous chunks.
func chunkBounds(n, p, i int) (lo, hi int) {
	return i * n / p, (i + 1) * n / p
}

// AllReduceSum sums x elementwise across all ranks, leaving the result in
// every rank's x. It is the chunked ring algorithm: p-1 reduce-scatter steps
// followed by p-1 all-gather steps, moving 2(p-1)/p of the vector per rank.
// The call blocks until this rank's participation completes; IAllReduceSum
// is the non-blocking variant. A non-nil error means the group degraded
// (deadline exceeded waiting on a peer, the group aborted, or this rank was
// killed by fault injection) and x holds partially reduced garbage; the
// group is condemned and every subsequent collective fails fast.
func (c *Comm) AllReduceSum(x []float64) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	c.syncColl++
	if err := c.injectDelay(); err != nil {
		return err
	}
	return c.ringReduce(x)
}

// ringReduce is the raw chunked ring all-reduce shared by the blocking and
// non-blocking entry points.
func (c *Comm) ringReduce(x []float64) error {
	p := c.g.size
	if p == 1 {
		return nil
	}
	n := len(x)
	// Reduce-scatter: after step s, the chunk (rank-s-1) accumulated one
	// more contribution; after p-1 steps rank r owns the fully reduced
	// chunk (r+1) mod p.
	for s := 0; s < p-1; s++ {
		sendIdx := (c.rank - s + p) % p
		recvIdx := (c.rank - s - 1 + p) % p
		lo, hi := chunkBounds(n, p, sendIdx)
		if err := c.sendChunk(x[lo:hi]); err != nil {
			return err
		}
		in, err := c.recvLeft()
		if err != nil {
			return err
		}
		lo, hi = chunkBounds(n, p, recvIdx)
		for i := range in {
			x[lo+i] += in[i]
		}
		c.spare = in
	}
	// All-gather: circulate the reduced chunks.
	for s := 0; s < p-1; s++ {
		sendIdx := (c.rank + 1 - s + p) % p
		recvIdx := (c.rank - s + p) % p
		lo, hi := chunkBounds(n, p, sendIdx)
		if err := c.sendChunk(x[lo:hi]); err != nil {
			return err
		}
		in, err := c.recvLeft()
		if err != nil {
			return err
		}
		lo, hi = chunkBounds(n, p, recvIdx)
		copy(x[lo:hi], in)
		c.spare = in
	}
	return nil
}
