package comm

// Multi-rank simultaneous death coverage plus the FaultPlan generation
// machinery. The single-victim kill matrix (fault_test.go) pins that ONE
// lost peer condemns the group within the deadline; these tests pin the
// harder variant the elastic-membership layer depends on — k ranks dying at
// the same collective must still surface as ErrPeerLost on every survivor,
// bounded-wait, with complete DeadRanks forensics and no leaked goroutines.

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestFaultInjectionMultiRankDeath drives every collective kind with TWO
// ranks scripted to die at the same collective index: each survivor must
// return an ErrPeerLost-wrapping error within a small multiple of the
// deadline, both dead ranks must report ErrRankKilled, and DeadRanks must
// list exactly the scripted pair.
func TestFaultInjectionMultiRankDeath(t *testing.T) {
	const p = 5
	const deadline = 100 * time.Millisecond
	pairs := [][2]int{{1, 3}, {0, p - 1}, {2, 3}}
	for _, kind := range collectiveKinds() {
		for _, victims := range pairs {
			t.Run(kind.name+"/kill"+string(rune('0'+victims[0]))+string(rune('0'+victims[1])), func(t *testing.T) {
				g := NewGroup(p)
				g.SetDeadline(deadline)
				g.FailAt(victims[0], 0)
				g.FailAt(victims[1], 0)
				start := time.Now()
				errs := runWithErrors(g, func(c *Comm) error {
					x := make([]float64, 64)
					x[0] = float64(c.Rank())
					return kind.run(c, x)
				})
				elapsed := time.Since(start)
				if elapsed > 20*deadline {
					t.Fatalf("survivors took %v to fail with 2 dead ranks, deadline is %v", elapsed, deadline)
				}
				for r, err := range errs {
					if err == nil {
						t.Fatalf("rank %d returned nil error with ranks %v dead", r, victims)
					}
					if r == victims[0] || r == victims[1] {
						if !errors.Is(err, ErrRankKilled) {
							t.Fatalf("killed rank %d error %v, want ErrRankKilled", r, err)
						}
					} else if !errors.Is(err, ErrPeerLost) {
						t.Fatalf("survivor %d error %v, want ErrPeerLost", r, err)
					}
				}
				dead := g.DeadRanks()
				if len(dead) != 2 || dead[0] != min(victims[0], victims[1]) || dead[1] != max(victims[0], victims[1]) {
					t.Fatalf("DeadRanks() = %v, want both of %v", dead, victims)
				}
				if g.Err() == nil {
					t.Fatal("group must be condemned after losing two peers")
				}
			})
		}
	}
}

// TestMultiRankDeathNoGoroutineLeak repeats the goroutine-leak regression
// with two simultaneous deaths on the non-blocking path: every survivor's
// background worker must exit after Wait surfaces the abort.
func TestMultiRankDeathNoGoroutineLeak(t *testing.T) {
	const p, trials = 5, 8
	before := runtime.NumGoroutine()
	for trial := 0; trial < trials; trial++ {
		g := NewGroup(p)
		g.SetDeadline(50 * time.Millisecond)
		g.FailAt(1, 0)
		g.FailAt(3, 0)
		errs := runWithErrors(g, func(c *Comm) error {
			return c.IAllReduceSum(make([]float64, 128)).Wait()
		})
		for r, err := range errs {
			if err == nil {
				t.Fatalf("trial %d rank %d: nil error with two dead ranks", trial, r)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after %d doubly-aborted async collectives",
				before, after, p*trials)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultPlanGenerations pins the multi-incarnation script: each Apply
// consumes exactly one generation, empty generations leave their group
// fault-free, out-of-range specs are dropped, and a drained plan is inert.
func TestFaultPlanGenerations(t *testing.T) {
	plan := NewFaultPlan().
		Generation(FaultSpec{Rank: 1, After: 0}).
		Generation(). // fault-free incarnation
		Generation(FaultSpec{Rank: 0, After: 0}, FaultSpec{Rank: 7, After: 0})
	if got := plan.Remaining(); got != 3 {
		t.Fatalf("Remaining() = %d, want 3", got)
	}

	// Generation 0: rank 1 dies at the first collective.
	g1 := NewGroup(3)
	g1.SetDeadline(100 * time.Millisecond)
	plan.Apply(g1)
	errs := runWithErrors(g1, func(c *Comm) error { return c.AllReduceSum([]float64{1}) })
	if errs[1] == nil || !errors.Is(errs[1], ErrRankKilled) {
		t.Fatalf("generation 0 did not kill rank 1: %v", errs[1])
	}

	// Generation 1: no faults, the collective must succeed.
	g2 := NewGroup(3)
	g2.SetDeadline(100 * time.Millisecond)
	plan.Apply(g2)
	for r, err := range runWithErrors(g2, func(c *Comm) error { return c.AllReduceSum([]float64{1}) }) {
		t.Helper()
		if err != nil {
			t.Fatalf("fault-free generation errored rank %d: %v", r, err)
		}
	}

	// Generation 2 on a 2-rank group: rank 7 no longer exists and is
	// dropped; rank 0 still dies.
	g3 := NewGroup(2)
	g3.SetDeadline(100 * time.Millisecond)
	plan.Apply(g3)
	errs = runWithErrors(g3, func(c *Comm) error { return c.AllReduceSum([]float64{1}) })
	if errs[0] == nil || !errors.Is(errs[0], ErrRankKilled) {
		t.Fatalf("generation 2 did not kill rank 0: %v", errs[0])
	}
	if dead := g3.DeadRanks(); len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("DeadRanks() = %v, want [0]", dead)
	}

	// Drained: applying past the last generation changes nothing.
	if got := plan.Remaining(); got != 0 {
		t.Fatalf("Remaining() after 3 applies = %d, want 0", got)
	}
	g4 := NewGroup(2)
	plan.Apply(g4)
	for r, err := range runWithErrors(g4, func(c *Comm) error { return c.AllReduceSum([]float64{1}) }) {
		if err != nil {
			t.Fatalf("drained plan injected a fault: rank %d: %v", r, err)
		}
	}
}
