package comm

// Non-blocking collectives. IAllReduceSum initiates the same chunked ring
// all-reduce as AllReduceSum but returns immediately with a Handle; the
// exchange runs on a background goroutine so the caller overlaps local
// compute with the in-flight reduction and pays only max(compute,
// communication) instead of their sum. This is the MPI_Iallreduce shape the
// pipelined CG solve is built on.
//
// Semantics mirror MPI's one-outstanding-request discipline, enforced at
// runtime: a rank may have at most one collective (blocking or non-blocking)
// in flight, every rank must issue its collectives in the same global order,
// and the buffer passed to IAllReduceSum must not be read or written until
// Wait returns. Wait must be called exactly once, from the goroutine that
// owns the Comm; it establishes the happens-before edge that makes the
// reduced buffer and the traffic counters safe to read.
//
// Failure semantics follow the blocking collectives (see fault.go): the
// background goroutine observes the group deadline and abort channel at
// every blocking point, so a dead or wedged peer makes Wait return an error
// within one deadline instead of hanging — and the goroutine itself exits
// rather than leaking. A failed initiation (dead rank, aborted group)
// returns a pre-completed Handle whose Wait reports the error.

// Handle is an in-flight non-blocking collective. Wait blocks until the
// reduction has completed — or failed — on this rank; on success the result
// is visible in the buffer passed at initiation.
type Handle struct {
	c      *Comm
	done   chan struct{} // nil when the collective completed at initiation
	err    error         // written before done is closed, read after Wait observes it
	waited bool
}

// Wait completes the collective and reports how it ended: nil on a fully
// reduced buffer, an ErrPeerLost/ErrRankKilled-wrapping error if the group
// degraded while the reduction was in flight (the buffer then holds
// garbage). It must be called exactly once per Handle.
func (h *Handle) Wait() error {
	if h.waited {
		panic("comm: Handle.Wait called twice")
	}
	h.waited = true
	if h.done != nil {
		<-h.done
	}
	h.c.end()
	return h.err
}

// IAllReduceSum starts a non-blocking elementwise sum of x across all ranks
// and returns a Handle. x holds the reduced result after Wait; until then it
// must not be touched. The traffic moved is identical to AllReduceSum —
// only the blocking point changes.
func (c *Comm) IAllReduceSum(x []float64) *Handle {
	if err := c.begin(); err != nil {
		// Failed initiation (dead rank or condemned group): hand back a
		// completed handle carrying the error so the caller's
		// Start/Finish discipline stays uniform.
		return &Handle{c: c, err: err}
	}
	c.asyncColl++
	if c.g.size == 1 {
		// Nothing to exchange: complete immediately, on the one handle the
		// rank reuses (at most one collective is in flight per rank), so
		// single-rank groups stay goroutine-free, allocation-free and
		// deterministic.
		c.solo = Handle{c: c}
		return &c.solo
	}
	h := &Handle{c: c, done: make(chan struct{})}
	go func() {
		if err := c.injectDelay(); err != nil {
			h.err = err
			close(h.done)
			return
		}
		h.err = c.ringReduce(x)
		close(h.done)
	}()
	return h
}
