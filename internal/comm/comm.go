// Package comm provides the collective-communication layer for data-parallel
// VQMC: a group of in-process "ranks" connected by channels, with a real
// chunked ring all-reduce (reduce-scatter + all-gather), broadcast and
// barrier. It stands in for NCCL/MPI in the paper's multi-GPU setup — the
// algorithms are the real ones; only the transport is in-memory.
//
// Collectives return errors instead of hanging when the group degrades: a
// configurable deadline (Group.SetDeadline) bounds every blocking point, a
// group-level abort channel fans the first failure out to every rank —
// including the background goroutines of non-blocking collectives — and a
// fault-injection seam (Group.FailAt, Group.Delay, mirroring SetLink)
// scripts rank deaths and stragglers so the failure paths are testable.
// See fault.go. On a healthy group with no deadline the behavior (and the
// fast path) is unchanged and every error is nil.
//
// The package also exposes the standard alpha-beta cost model used to
// predict collective latency on modeled cluster links (see package cluster).
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
	bcast []chan []float64 // per-rank broadcast mailboxes
	link  Link             // zero value: ideal network, no simulated cost

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

// SetLink attaches an alpha-beta link model to the group: every subsequent
// collective additionally sleeps the modeled ring (or gather) time on each
// rank, so wall-clock measurements expose the latency that non-blocking
// collectives can hide behind compute. Call it before any collective runs;
// it must not race with in-flight collectives.
func (g *Group) SetLink(l Link) { g.link = l }

// Link returns the attached link model (the zero Link: ideal network).
func (g *Group) Link() Link { return g.link }

// NewGroup creates a communicator group of the given size.
func NewGroup(size int) *Group {
	if size < 1 {
		panic("comm: group size must be >= 1")
	}
	g := &Group{size: size}
	g.right = make([]chan []float64, size)
	g.bcast = make([]chan []float64, size)
	for i := range g.right {
		g.right[i] = make(chan []float64, 1)
		g.bcast[i] = make(chan []float64, 1)
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

// simulate sleeps the modeled ring all-reduce time for an n-element payload
// when the group carries a link model; a no-op otherwise.
func (c *Comm) simulate(n int) {
	c.sleepModeled(RingAllReduceTime(float64(n)*8, c.g.size, c.g.link))
}

func (c *Comm) sleepModeled(t time.Duration) {
	if c.g.link == (Link{}) || t <= 0 {
		return
	}
	time.Sleep(t)
}

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
// The call blocks until this rank's participation (and any simulated link
// time) completes; IAllReduceSum is the non-blocking variant. A non-nil
// error means the group degraded (deadline exceeded waiting on a peer, the
// group aborted, or this rank was killed by fault injection) and x holds
// partially reduced garbage; the group is condemned and every subsequent
// collective fails fast.
func (c *Comm) AllReduceSum(x []float64) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	c.syncColl++
	if err := c.injectDelay(); err != nil {
		return err
	}
	if err := c.ringReduce(x); err != nil {
		return err
	}
	c.simulate(len(x))
	return nil
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

// NaiveAllReduceSum is the gather-to-root-then-broadcast alternative kept
// for the ablation benchmark: it moves (p-1)*n to the root link instead of
// spreading traffic around the ring. Error semantics match AllReduceSum.
func (c *Comm) NaiveAllReduceSum(x []float64) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	c.syncColl++
	if err := c.injectDelay(); err != nil {
		return err
	}
	defer c.sleepModeled(NaiveAllReduceTime(float64(len(x))*8, c.g.size, c.g.link))
	p := c.g.size
	if p == 1 {
		return nil
	}
	if c.rank == 0 {
		for r := 1; r < p; r++ {
			in, err := c.recvOn(c.g.bcast[0], r)
			if err != nil {
				return err
			}
			for i := range in {
				x[i] += in[i]
			}
		}
		for r := 1; r < p; r++ {
			out := make([]float64, len(x))
			copy(out, x)
			c.bytesSent += int64(len(x)) * 8
			c.messages++
			if err := c.sendOn(c.g.bcast[r], out, r); err != nil {
				return err
			}
		}
		return nil
	}
	out := make([]float64, len(x))
	copy(out, x)
	c.bytesSent += int64(len(x)) * 8
	c.messages++
	if err := c.sendOn(c.g.bcast[0], out, 0); err != nil {
		return err
	}
	in, err := c.recvOn(c.g.bcast[c.rank], 0)
	if err != nil {
		return err
	}
	copy(x, in)
	return nil
}

// Broadcast copies root's x into every rank's x by passing it around the
// ring (p-1 payload hops), then circulates a one-element acknowledgement
// token around the full ring, originated by the last payload recipient.
// The ack makes Broadcast synchronizing: no rank returns until every rank
// holds the payload, so a dead rank anywhere on the ring surfaces as a
// bounded-wait error on every survivor — none of them can complete locally
// against a lost peer and sail past the failure. Error semantics match
// AllReduceSum.
func (c *Comm) Broadcast(x []float64, root int) error {
	if err := c.begin(); err != nil {
		return err
	}
	defer c.end()
	c.syncColl++
	if err := c.injectDelay(); err != nil {
		return err
	}
	// Modeled cost: p-1 sequential full-vector hops around the ring (the
	// one-element ack round is not charged).
	defer c.sleepModeled(time.Duration(c.g.size-1) * c.g.link.Transfer(float64(len(x))*8))
	p := c.g.size
	if p == 1 {
		return nil
	}
	// Distance from root along the ring.
	dist := (c.rank - root + p) % p
	if dist > 0 {
		in, err := c.recvLeft()
		if err != nil {
			return err
		}
		copy(x, in)
	}
	if dist < p-1 {
		out := make([]float64, len(x))
		copy(out, x)
		if err := c.sendRight(out); err != nil {
			return err
		}
	}
	// Ack round: the last payload recipient (dist p-1) originates a token
	// that travels the full ring and is consumed one hop before it (dist
	// p-2; the root for p == 2). Receiving the token proves every rank at
	// greater ring distance — i.e. all of them — got the payload.
	ack := []float64{1}
	if dist < p-1 {
		var err error
		if ack, err = c.recvLeft(); err != nil {
			return err
		}
	}
	if dist != (p-2+p)%p {
		if err := c.sendRight(ack); err != nil {
			return err
		}
	}
	return nil
}

// Barrier blocks until every rank has entered it (or the group degrades, in
// which case it returns the abort cause like every other collective).
func (c *Comm) Barrier() error {
	tok := []float64{1}
	return c.AllReduceSum(tok)
}

// Link is an alpha-beta communication link: per-message latency plus
// inverse bandwidth.
type Link struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second
}

// Transfer returns the modeled time to move nBytes across the link.
func (l Link) Transfer(nBytes float64) time.Duration {
	if l.Bandwidth <= 0 {
		return l.Latency
	}
	return l.Latency + time.Duration(nBytes/l.Bandwidth*float64(time.Second))
}

// RingAllReduceTime is the alpha-beta cost of a p-rank ring all-reduce of
// nBytes: 2(p-1) steps, each moving nBytes/p over the slowest link.
func RingAllReduceTime(nBytes float64, p int, link Link) time.Duration {
	if p <= 1 {
		return 0
	}
	steps := 2 * (p - 1)
	return time.Duration(steps) * link.Transfer(nBytes/float64(p))
}

// NaiveAllReduceTime is the gather+broadcast cost: the root link carries
// (p-1) full-vector messages in, then (p-1) out.
func NaiveAllReduceTime(nBytes float64, p int, link Link) time.Duration {
	if p <= 1 {
		return 0
	}
	return time.Duration(2*(p-1)) * link.Transfer(nBytes)
}
