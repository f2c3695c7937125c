package comm

// Fault injection and bounded-wait failure semantics.
//
// The in-memory transport makes the hang-forever failure mode of a fixed-
// membership ring painfully easy to reproduce: a dead rank simply never
// sends, and every surviving rank blocks on a bare channel receive. This
// file turns that silent hang into a reported, recoverable error:
//
//   - SetDeadline bounds every blocking point of every collective. A rank
//     that waits longer than the deadline for a peer (or for its own send
//     buffer to drain) aborts the whole group with an error wrapping
//     ErrPeerLost, and returns it.
//   - The group-level abort channel fans the failure out: every other rank
//     blocked anywhere inside a collective — including the background
//     goroutine of a non-blocking IAllReduceSum — observes the abort and
//     returns the same cause promptly, so no goroutine leaks and no rank
//     waits longer than one deadline.
//   - Once aborted, a group is condemned: every subsequent collective on
//     any rank fails fast with the original cause. Recovery rebuilds a
//     fresh group (see package dist).
//
// The injection seam is two group settings: FailAt scripts a rank to die at
// a chosen collective (it stops participating, exactly like a crashed
// process — detection is the survivors' deadline, not a courtesy message),
// and Delay scripts a straggler. Both must be configured before collectives
// start.

import (
	"errors"
	"fmt"
	"time"
)

// ErrPeerLost is wrapped by the error every surviving rank's collective
// returns when a peer stops participating: the rank that first exceeds the
// group deadline wraps it with who/what/how-long context and aborts the
// group, and every other rank inherits that cause through the abort
// channel.
var ErrPeerLost = errors.New("comm: peer lost")

// ErrRankKilled is wrapped by the error a collective returns on a rank that
// fault injection has killed (see Group.FailAt). The dead rank itself gets
// this error immediately; its peers detect the death by deadline and get
// ErrPeerLost.
var ErrRankKilled = errors.New("comm: rank killed by fault injection")

// ErrAborted is the cause recorded when Group.Abort is called with a nil
// error.
var ErrAborted = errors.New("comm: group aborted")

// SetDeadline bounds every blocking point of every subsequent collective:
// a rank that waits longer than d for a peer's message (or for a stalled
// peer to drain its send) aborts the group with an ErrPeerLost-wrapping
// error and returns it, and every other rank's in-flight collective returns
// the same cause promptly. d <= 0 restores unbounded waits (the abort
// channel still provides liveness once any rank aborts explicitly). It must
// be called before collectives run; it must not race with in-flight
// collectives.
func (g *Group) SetDeadline(d time.Duration) { g.deadline = d }

// Deadline returns the configured per-blocking-point collective deadline
// (0 = unbounded).
func (g *Group) Deadline() time.Duration { return g.deadline }

// FailAt scripts rank r to die at its (after+1)-th collective initiation:
// after it has begun `after` collectives, the next one returns an
// ErrRankKilled-wrapping error without participating, and the rank stays
// dead for the life of the group. The death is silent, exactly like a
// crashed process — surviving ranks detect it only by exceeding the group
// deadline, so pair FailAt with SetDeadline or the survivors will block
// until an explicit Abort. Call before collectives start; scripting at most
// one failure per test keeps the post-mortem deterministic, but multiple
// dead ranks are supported.
func (g *Group) FailAt(rank, after int) {
	if rank < 0 || rank >= g.size {
		panic(fmt.Sprintf("comm: FailAt rank %d out of range [0,%d)", rank, g.size))
	}
	if after < 0 {
		panic("comm: FailAt needs a non-negative collective count")
	}
	g.failAt[rank] = after
}

// Delay scripts rank r as a straggler: every collective it initiates first
// sleeps d (on the background goroutine for non-blocking collectives, so
// initiation itself stays prompt). A straggler below the group deadline
// slows everyone but errors no one; at or above the deadline it is
// indistinguishable from a dead rank and the survivors abort. Call before
// collectives start.
func (g *Group) Delay(rank int, d time.Duration) {
	if rank < 0 || rank >= g.size {
		panic(fmt.Sprintf("comm: Delay rank %d out of range [0,%d)", rank, g.size))
	}
	g.delay[rank] = d
}

// Abort condemns the group: every rank blocked inside a collective returns
// an error carrying cause promptly, and every subsequent collective on any
// rank fails fast with it. The first cause wins; later calls are no-ops.
// A nil cause records ErrAborted.
func (g *Group) Abort(cause error) {
	if cause == nil {
		cause = ErrAborted
	}
	g.abortMu.Lock()
	if g.abortErr == nil {
		g.abortErr = cause
		close(g.abort)
	}
	g.abortMu.Unlock()
}

// Err returns the abort cause, or nil while the group is healthy. Once
// non-nil it never changes.
func (g *Group) Err() error {
	g.abortMu.Lock()
	defer g.abortMu.Unlock()
	return g.abortErr
}

// DeadRanks lists the ranks whose scripted FailAt has fired, in ascending
// order. It must only be read after the rank goroutines have quiesced (the
// caller's join establishes the happens-before edge); recovery uses it to
// decide which replicas to rebuild.
func (g *Group) DeadRanks() []int {
	var dead []int
	for r, d := range g.dead {
		if d {
			dead = append(dead, r)
		}
	}
	return dead
}

// abortCause wraps the group's abort cause with the observing rank.
func (c *Comm) abortCause() error {
	return fmt.Errorf("comm: rank %d: collective aborted: %w", c.rank, c.g.Err())
}

// injectDelay sleeps the rank's scripted straggler delay, if any. The sleep
// observes the group abort channel: a straggler whose peers have already
// condemned the group wakes immediately with the abort cause instead of
// wedging its goroutine for the full scripted delay.
func (c *Comm) injectDelay() error {
	d := c.g.delay[c.rank]
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.g.abort:
		return c.abortCause()
	}
}

// recvOn receives the next message from ch (fed by peer `from`), bounded by
// the group deadline and the abort channel. On deadline expiry it aborts
// the group so every other rank unblocks too.
func (c *Comm) recvOn(ch chan []float64, from int) ([]float64, error) {
	select {
	case m := <-ch:
		return m, nil
	default:
	}
	var timeout <-chan time.Time
	if d := c.g.deadline; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case m := <-ch:
		return m, nil
	case <-c.g.abort:
		return nil, c.abortCause()
	case <-timeout:
		err := fmt.Errorf("comm: rank %d: no message from rank %d within %v: %w",
			c.rank, from, c.g.deadline, ErrPeerLost)
		c.g.Abort(err)
		return nil, err
	}
}

// sendOn delivers data into ch (drained by peer `to`) under the same
// deadline/abort bounds as recvOn: a dead peer eventually stops draining
// its mailbox, so sends must be bounded-wait too or a survivor can hang one
// buffered message after the crash.
func (c *Comm) sendOn(ch chan []float64, data []float64, to int) error {
	select {
	case ch <- data:
		return nil
	default:
	}
	var timeout <-chan time.Time
	if d := c.g.deadline; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case ch <- data:
		return nil
	case <-c.g.abort:
		return c.abortCause()
	case <-timeout:
		err := fmt.Errorf("comm: rank %d: rank %d did not drain a message within %v: %w",
			c.rank, to, c.g.deadline, ErrPeerLost)
		c.g.Abort(err)
		return err
	}
}
