package comm

// Fault-injection and bounded-wait regression tests: the hang-forever
// failure class. Every test here would deadlock (and time out the whole
// suite) on the pre-deadline implementation, so they double as liveness
// regressions: a surviving rank must ERROR, within the configured deadline,
// never block forever — and the background goroutines of non-blocking
// collectives must exit rather than leak.

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// collectiveKind enumerates the collective entry points the kill matrix
// drives; the CI race job runs the full matrix (rank x kind).
type collectiveKind struct {
	name string
	run  func(c *Comm, x []float64) error
}

func collectiveKinds() []collectiveKind {
	return []collectiveKind{
		{"AllReduceSum", func(c *Comm, x []float64) error { return c.AllReduceSum(x) }},
		{"IAllReduceSum", func(c *Comm, x []float64) error { return c.IAllReduceSum(x).Wait() }},
		{"PackedAllReduce", func(c *Comm, x []float64) error {
			p := NewPacked(len(x)-1, 1)
			copy(p.Buf(), x)
			return p.AllReduce(c)
		}},
	}
}

// runWithErrors executes body on every rank concurrently and returns the
// per-rank errors.
func runWithErrors(g *Group, body func(c *Comm) error) []error {
	errs := make([]error, g.Size())
	var wg sync.WaitGroup
	wg.Add(g.Size())
	for r := 0; r < g.Size(); r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = body(g.Rank(r))
		}(r)
	}
	wg.Wait()
	return errs
}

// TestFaultInjectionKillMatrix is the deadlock-regression matrix: kill rank
// r in {0, mid, last} at collective 0 under every collective kind, and
// demand that EVERY surviving rank returns an ErrPeerLost-wrapping error
// within a small multiple of the deadline while the killed rank reports
// ErrRankKilled. Any hang fails the suite's timeout.
func TestFaultInjectionKillMatrix(t *testing.T) {
	const p = 5
	const deadline = 100 * time.Millisecond
	for _, kind := range collectiveKinds() {
		for _, victim := range []int{0, p / 2, p - 1} {
			t.Run(kind.name+"/kill"+string(rune('0'+victim)), func(t *testing.T) {
				g := NewGroup(p)
				g.SetDeadline(deadline)
				g.FailAt(victim, 0)
				start := time.Now()
				errs := runWithErrors(g, func(c *Comm) error {
					x := make([]float64, 64)
					x[0] = float64(c.Rank())
					return kind.run(c, x)
				})
				elapsed := time.Since(start)
				// Generous bound: one deadline for detection, slack for a
				// loaded CI box. The point is "bounded", not "instant".
				if elapsed > 20*deadline {
					t.Fatalf("survivors took %v to fail, deadline is %v", elapsed, deadline)
				}
				for r, err := range errs {
					if err == nil {
						t.Fatalf("rank %d returned nil error with rank %d dead", r, victim)
					}
					if r == victim {
						if !errors.Is(err, ErrRankKilled) {
							t.Fatalf("killed rank %d error %v, want ErrRankKilled", r, err)
						}
					} else if !errors.Is(err, ErrPeerLost) {
						t.Fatalf("survivor %d error %v, want ErrPeerLost", r, err)
					}
				}
				if dead := g.DeadRanks(); len(dead) != 1 || dead[0] != victim {
					t.Fatalf("DeadRanks() = %v, want [%d]", dead, victim)
				}
				if g.Err() == nil {
					t.Fatal("group must be condemned after a lost peer")
				}
			})
		}
	}
}

// TestFailAtLaterCollective kills a rank only at its third collective: the
// first two must succeed on every rank, the third must fail everywhere.
func TestFailAtLaterCollective(t *testing.T) {
	const p = 3
	g := NewGroup(p)
	g.SetDeadline(100 * time.Millisecond)
	g.FailAt(1, 2)
	errs := runWithErrors(g, func(c *Comm) error {
		for round := 0; round < 3; round++ {
			x := []float64{1, 2, 3}
			if err := c.AllReduceSum(x); err != nil {
				if round != 2 {
					return errors.Join(errors.New("failed before the scripted collective"), err)
				}
				return err
			}
			if x[0] != p {
				t.Errorf("rank %d round %d: bad reduction %v", c.Rank(), round, x[0])
			}
		}
		return errors.New("third collective did not fail")
	})
	for r, err := range errs {
		if err == nil || !errors.Is(err, ErrPeerLost) && !errors.Is(err, ErrRankKilled) {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestStragglerBelowDeadlineSucceeds pins the distinction between slow and
// dead: a straggler sleeping well under the deadline slows the collective
// but must not error any rank or abort the group.
func TestStragglerBelowDeadlineSucceeds(t *testing.T) {
	const p = 4
	g := NewGroup(p)
	g.SetDeadline(2 * time.Second)
	g.Delay(2, 20*time.Millisecond)
	errs := runWithErrors(g, func(c *Comm) error {
		x := []float64{1}
		if err := c.AllReduceSum(x); err != nil {
			return err
		}
		if x[0] != p {
			t.Errorf("rank %d: reduced %v, want %d", c.Rank(), x[0], p)
		}
		return c.IAllReduceSum(x).Wait()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d errored with a sub-deadline straggler: %v", r, err)
		}
	}
	if g.Err() != nil {
		t.Fatalf("group aborted: %v", g.Err())
	}
}

// TestStragglerBeyondDeadlineAborts: a straggler slower than the deadline
// is indistinguishable from a crash and must produce the same bounded-wait
// abort on the survivors.
func TestStragglerBeyondDeadlineAborts(t *testing.T) {
	const p = 3
	g := NewGroup(p)
	g.SetDeadline(30 * time.Millisecond)
	g.Delay(1, 10*time.Second) // far beyond: survivors must not wait it out
	start := time.Now()
	errs := runWithErrors(g, func(c *Comm) error {
		return c.AllReduceSum([]float64{1})
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("survivors waited %v for a wedged rank", elapsed)
	}
	for r, err := range errs {
		if r == 1 {
			continue // the straggler itself wakes into an aborted group; any outcome is fine
		}
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("survivor %d: %v, want ErrPeerLost", r, err)
		}
	}
}

// TestAbortIsSticky: after a failure, every subsequent collective on every
// rank fails fast with the original cause instead of re-blocking for a
// deadline.
func TestAbortIsSticky(t *testing.T) {
	const p = 3
	g := NewGroup(p)
	g.SetDeadline(50 * time.Millisecond)
	g.FailAt(0, 0)
	runWithErrors(g, func(c *Comm) error { return c.AllReduceSum([]float64{1}) })
	cause := g.Err()
	if cause == nil {
		t.Fatal("no abort cause recorded")
	}
	start := time.Now()
	errs := runWithErrors(g, func(c *Comm) error { return c.AllReduceSum([]float64{1}) })
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("condemned-group collective took %v, want fail-fast", elapsed)
	}
	for r, err := range errs {
		if err == nil || !errors.Is(err, cause) && !errors.Is(err, ErrPeerLost) && !errors.Is(err, ErrRankKilled) {
			t.Fatalf("rank %d: %v does not carry the abort cause", r, err)
		}
	}
}

// TestExplicitAbortUnblocksRanks: Abort from outside (no injected fault, no
// deadline) must release ranks blocked inside a collective — the liveness
// hook a coordinator uses when it learns about a failure out of band.
func TestExplicitAbortUnblocksRanks(t *testing.T) {
	const p = 2
	g := NewGroup(p) // deliberately no deadline
	done := make(chan error, 1)
	go func() {
		// Rank 0 enters alone; rank 1 never shows up.
		done <- g.Rank(0).AllReduceSum([]float64{1, 2, 3})
	}()
	time.Sleep(20 * time.Millisecond)
	g.Abort(nil)
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, ErrAborted) {
			t.Fatalf("aborted collective returned %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not unblock the waiting rank")
	}
}

// TestIAllReduceNoGoroutineLeakOnAbort is the goroutine-leak regression for
// the non-blocking path: kill one rank, have every survivor initiate an
// IAllReduceSum and Wait out the failure, and demand the background worker
// goroutines all exit. Counted over enough trials that a leak of even one
// goroutine per aborted collective is unmissable.
func TestIAllReduceNoGoroutineLeakOnAbort(t *testing.T) {
	const p, trials = 4, 8
	before := runtime.NumGoroutine()
	for trial := 0; trial < trials; trial++ {
		g := NewGroup(p)
		g.SetDeadline(50 * time.Millisecond)
		g.FailAt(1, 0)
		errs := runWithErrors(g, func(c *Comm) error {
			h := c.IAllReduceSum(make([]float64, 128))
			return h.Wait()
		})
		for r, err := range errs {
			if err == nil {
				t.Fatalf("trial %d rank %d: nil error under an aborted collective", trial, r)
			}
		}
	}
	// The workers exit asynchronously after Wait returns; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+1 { // +1 tolerance for runtime bookkeeping goroutines
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after %d aborted async collectives",
				before, after, p*trials)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineWithoutFaultIsFree: a configured deadline on a healthy group
// must change nothing — same reduced bytes, no errors.
func TestDeadlineWithoutFaultIsFree(t *testing.T) {
	const p, n = 4, 37
	g := NewGroup(p)
	g.SetDeadline(time.Second)
	errs := runWithErrors(g, func(c *Comm) error {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(c.Rank() + i)
		}
		if err := c.AllReduceSum(x); err != nil {
			return err
		}
		for i := range x {
			want := float64(p*i) + float64(p*(p-1)/2)
			if x[i] != want {
				t.Errorf("rank %d elem %d: %v want %v", c.Rank(), i, x[i], want)
			}
		}
		return c.IAllReduceSum(x).Wait()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("healthy deadline-bounded rank %d errored: %v", r, err)
		}
	}
}

// TestSingleRankFaultFree: the p=1 fast paths must stay error-free and
// goroutine-free with a deadline configured.
func TestSingleRankFaultFree(t *testing.T) {
	g := NewGroup(1)
	g.SetDeadline(time.Millisecond)
	c := g.Rank(0)
	if err := c.AllReduceSum([]float64{4}); err != nil {
		t.Fatal(err)
	}
	if err := c.IAllReduceSum([]float64{4}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := c.AllReduceSum([]float64{1}); err != nil {
		t.Fatal(err)
	}
}
