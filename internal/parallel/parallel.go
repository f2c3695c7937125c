// Package parallel is the one fork–join of the shipped code: a parallel for
// with an optional grain threshold (ForGrain) and index-range partitioning.
// A section runs its first range on the caller and one plain goroutine per
// further range, and returns when all have: no pool, no queue, no goroutine
// outliving the call. Every concurrent section of a training step, the L
// ranks of a distributed step and the chains of a Markov sampler go through
// For, so callers never manage goroutine lifecycles themselves.
//
// Worker count is a throughput knob only: every helper invokes its body on
// exactly the same index ranges for a given (n, workers) pair regardless of
// how the ranges are scheduled, so results stay bitwise identical at any
// worker count.
package parallel

import (
	"runtime"
	"sync"
)

// MaxWorkers is the default worker count: what workers <= 0 asks For for.
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

// For runs body(lo, hi) over a partition of [0,n) using up to workers
// concurrent executors. workers <= 0 means MaxWorkers. With one worker or
// tiny n the loop runs inline, so For is safe to use unconditionally on hot
// paths. Every range gets an executor of its own — the caller takes the
// first, a fresh goroutine each of the rest — so bodies may wait on one
// another (the ranks of a collective do) and nested sections cannot
// deadlock.
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
		go func() {
			defer wg.Done()
			body(r.Lo, r.Hi)
		}()
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
