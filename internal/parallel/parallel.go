// Package parallel provides small building blocks for data-parallel loops:
// a parallel for with an optional grain threshold (ForGrain) and index-range
// partitioning. Parallel sections are dispatched through a process-wide
// persistent worker pool so hot loops that fan out every iteration (the
// trainer, the batched evaluators) do not pay goroutine startup each time;
// callers never manage goroutine lifecycles directly.
//
// Worker count is a throughput knob only: every helper invokes its body on
// exactly the same index ranges for a given (n, workers) pair regardless of
// how the ranges are scheduled, so results stay bitwise identical whether
// ranges run inline, on pooled workers, or on freshly spawned goroutines.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxWorkers is the default worker count for For and Map.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// Range is a half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Partition splits [0,n) into at most parts near-equal contiguous ranges.
// Empty ranges are omitted, so the result may be shorter than parts.
func Partition(n, parts int) []Range {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if lo < hi {
			out = append(out, Range{lo, hi})
		}
	}
	return out
}

// poolTask is one unit of work handed to a persistent pool worker.
type poolTask struct {
	fn   func()
	done *sync.WaitGroup
}

// poolWorker is a persistent goroutine that runs tasks one at a time and
// re-registers itself as idle after each.
type poolWorker struct {
	tasks chan poolTask
}

func (w *poolWorker) loop() {
	for t := range w.tasks {
		t.fn()
		// Re-register before signalling completion so back-to-back parallel
		// sections can reclaim this worker immediately. The idle channel is
		// sized to the spawn cap, so the send never blocks.
		globalIdle <- w
		t.done.Done()
	}
}

// maxPoolWorkers caps the persistent pool. Sections wider than the cap fall
// back to one-shot goroutines for the overflow, so nothing queues and nested
// For calls can never deadlock: work is only ever handed to a worker that is
// provably idle.
const maxPoolWorkers = 64

var (
	globalIdle    = make(chan *poolWorker, maxPoolWorkers)
	globalSpawned atomic.Int32
)

// dispatch runs fn on a persistent pool worker when one is idle, growing the
// pool on demand up to maxPoolWorkers, and falls back to a fresh goroutine
// beyond the cap. wg.Done is called exactly once when fn returns.
func dispatch(fn func(), wg *sync.WaitGroup) {
	select {
	case w := <-globalIdle:
		w.tasks <- poolTask{fn, wg}
		return
	default:
	}
	if globalSpawned.Add(1) <= maxPoolWorkers {
		w := &poolWorker{tasks: make(chan poolTask, 1)}
		go w.loop()
		w.tasks <- poolTask{fn, wg}
		return
	}
	globalSpawned.Add(-1)
	go func() {
		fn()
		wg.Done()
	}()
}

// For runs body(lo, hi) over a partition of [0,n) using up to workers
// concurrent executors. workers <= 0 means MaxWorkers. With one worker or
// tiny n the loop runs inline, so For is safe to use unconditionally on hot
// paths; wider sections are dispatched through the persistent process-wide
// pool, spawning goroutines only when the pool is saturated.
func For(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = MaxWorkers()
	}
	ranges := Partition(n, workers)
	if len(ranges) == 1 {
		body(ranges[0].Lo, ranges[0].Hi)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges) - 1)
	for _, r := range ranges[1:] {
		r := r
		dispatch(func() { body(r.Lo, r.Hi) }, &wg)
	}
	body(ranges[0].Lo, ranges[0].Hi)
	wg.Wait()
}

// ForGrain is For with a minimum per-range grain: the worker count is capped
// so every executed range spans at least grain indices, and the whole loop
// runs inline once n <= grain. Use it for cheap per-element bodies (zeroing,
// copies, elementwise maps) where dispatch overhead would dominate below the
// threshold; grain <= 1 is plain For. For a given effective partition the
// executed index ranges are identical to For's, so the grain choice affects
// scheduling only, never results.
func ForGrain(n, workers, grain int, body func(lo, hi int)) {
	if grain > 1 && n > 0 {
		maxParts := n / grain
		if maxParts < 1 {
			maxParts = 1
		}
		if workers <= 0 {
			workers = MaxWorkers()
		}
		if workers > maxParts {
			workers = maxParts
		}
	}
	For(n, workers, body)
}

// ForEach runs body(i) for each i in [0,n) with up to workers goroutines.
func ForEach(n, workers int, body func(i int)) {
	For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}
