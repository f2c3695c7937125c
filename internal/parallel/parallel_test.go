package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPartitionCovers(t *testing.T) {
	f := func(n, parts uint8) bool {
		rs := Partition(int(n), int(parts))
		covered := 0
		last := 0
		for _, r := range rs {
			if r.Lo != last || r.Hi <= r.Lo {
				return false
			}
			covered += r.Hi - r.Lo
			last = r.Hi
		}
		return covered == int(n) && (len(rs) == 0) == (n == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	rs := Partition(100, 7)
	for _, r := range rs {
		size := r.Hi - r.Lo
		if size < 100/7 || size > 100/7+1 {
			t.Errorf("unbalanced range %v", r)
		}
	}
}

func TestForVisitsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var count int64
		visited := make([]int32, 1000)
		For(1000, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visited[i], 1)
				atomic.AddInt64(&count, 1)
			}
		})
		if count != 1000 {
			t.Fatalf("workers=%d visited %d indices", workers, count)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("index %d visited %d times", i, v)
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(lo, hi int) { called = true })
	For(-5, 4, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty loop")
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	ForEach(100, 4, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		For(1024, 0, func(lo, hi int) {
			s := 0.0
			for j := lo; j < hi; j++ {
				s += float64(j)
			}
			_ = s
		})
	}
}

func TestForGrainVisitsAll(t *testing.T) {
	for _, tc := range []struct{ n, workers, grain int }{
		{1000, 8, 1}, {1000, 8, 100}, {1000, 8, 5000},
		{7, 4, 4}, {0, 4, 16}, {1000, 0, 64},
	} {
		var count int64
		visited := make([]int32, tc.n)
		ForGrain(tc.n, tc.workers, tc.grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visited[i], 1)
				atomic.AddInt64(&count, 1)
			}
		})
		if count != int64(tc.n) {
			t.Fatalf("%+v: visited %d indices", tc, count)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("%+v: index %d visited %d times", tc, i, v)
			}
		}
	}
}

// TestForGrainInlineBelowThreshold pins the grain contract: once n <= grain
// the whole loop is one inline body call.
func TestForGrainInlineBelowThreshold(t *testing.T) {
	var calls int64
	ForGrain(64, 8, 64, func(lo, hi int) { atomic.AddInt64(&calls, 1) })
	if calls != 1 {
		t.Fatalf("n<=grain made %d body calls, want 1", calls)
	}
	atomic.StoreInt64(&calls, 0)
	ForGrain(129, 8, 64, func(lo, hi int) { atomic.AddInt64(&calls, 1) })
	if calls != 2 {
		t.Fatalf("n=129 grain=64 made %d body calls, want 2", calls)
	}
}

// TestForGrainSameRangesAsFor pins the bitwise doctrine at the scheduling
// layer: for the effective partition, ForGrain executes exactly the ranges
// For would with the capped worker count.
func TestForGrainSameRangesAsFor(t *testing.T) {
	collect := func(run func(body func(lo, hi int))) map[Range]bool {
		var mu sync.Mutex
		got := map[Range]bool{}
		run(func(lo, hi int) {
			mu.Lock()
			got[Range{lo, hi}] = true
			mu.Unlock()
		})
		return got
	}
	a := collect(func(b func(lo, hi int)) { ForGrain(1000, 8, 300, b) })
	b := collect(func(b2 func(lo, hi int)) { For(1000, 3, b2) })
	if len(a) != len(b) {
		t.Fatalf("range sets differ: %v vs %v", a, b)
	}
	for r := range a {
		if !b[r] {
			t.Fatalf("ForGrain range %v not produced by For", r)
		}
	}
}

// TestForNestedNoDeadlock exercises nested fan-out: inner For calls run
// while every outer range occupies an executor. Every range gets a goroutine
// of its own, so this must complete rather than deadlock.
func TestForNestedNoDeadlock(t *testing.T) {
	var total int64
	For(16, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(100, 4, func(l, h int) {
				atomic.AddInt64(&total, int64(h-l))
			})
		}
	})
	if total != 1600 {
		t.Fatalf("nested total = %d, want 1600", total)
	}
}

// TestForRunsRangesConcurrently pins the contract the distributed trainer's
// rank launch relies on: ForEach(n, n, ...) runs all n bodies at once, so
// bodies that wait for one another (here at a barrier, there in a
// collective) return. A section that queued any range behind another would
// hang here.
func TestForRunsRangesConcurrently(t *testing.T) {
	const n = 65
	var barrier sync.WaitGroup
	barrier.Add(n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ForEach(n, n, func(int) {
			barrier.Done()
			barrier.Wait()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("65 bodies meeting at a barrier did not all run concurrently")
	}
}

// TestForLeavesNoGoroutines pins that a section's goroutines end with it:
// after thousands of For calls the process is back at its baseline count.
func TestForLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 2000; i++ {
		For(256, 8, func(lo, hi int) {
			s := 0.0
			for j := lo; j < hi; j++ {
				s += float64(j)
			}
			_ = s
		})
	}
	// wg.Done is a goroutine's last statement, not its exit: give the
	// stragglers of the final section a moment to unwind.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after 2000 sections, %d before", got, base)
	}
}
