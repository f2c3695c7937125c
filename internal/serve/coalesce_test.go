package serve

// Property tests for the coalescer's lifecycle invariants: no request is
// dropped, duplicated, or cross-wired under concurrent submit / cancel /
// timeout, admission control rejects deterministically, the pending
// reservation always drains back to zero, and the dispatcher's yield folds
// a burst on one thread. Tests that need requests to sit in the queue park
// the dispatcher (parkedModel) instead of racing it.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// directLogPsi computes the single-caller reference for configs.
func directLogPsi(wf nn.Wavefunction, configs [][]int) []float64 {
	b := sampler.NewBatch(len(configs), len(configs[0]))
	for k, row := range configs {
		copy(b.Row(k), row)
	}
	out := make([]float64, b.N)
	core.NewBatchedEval(wf, core.EvalAuto, 1).LogPsi(b, out)
	return out
}

// parkedModel registers spec as "m" on a fresh server WITHOUT starting the
// model's dispatcher: submits are admitted and queued and their callers
// block on ready, so a test can build the exact queue it wants, observe it
// through len(m.reqCh) / m.pendingRows, and then call start. Cleanup starts
// the dispatcher if the test did not and closes the server.
func parkedModel(t *testing.T, spec ModelSpec) (s *Server, m *modelService, start func()) {
	t.Helper()
	cfg := spec.Config.withDefaults()
	m = newModelService("m", spec.WF, spec.Ham, core.NewBatchedEval(spec.WF, core.EvalAuto, cfg.Workers), cfg)
	s = NewServer(ServerConfig{})
	s.models["m"] = m
	var once sync.Once
	start = func() { once.Do(m.start) }
	t.Cleanup(func() { start(); s.Close() })
	return s, m, start
}

// waitFor polls cond until it holds; a condition that never comes true is
// a hang, reported after a generous deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestCoalescerNoDropDupCrosswire floods one model from many clients whose
// workloads all differ, with a mix of request sizes and kinds, and asserts
// every single response carries exactly its own client's values — the
// cross-wiring detector — and that every submit completes exactly once
// (the test would hang on a drop; a duplicate would double-close ready and
// panic).
func TestCoalescerNoDropDupCrosswire(t *testing.T) {
	const n, h = 9, 10
	const clients, iters = 48, 20
	wf := buildWF("made", n, h, 7)
	ham := hamiltonian.RandomTIM(n, rng.New(8))
	s := NewServer(ServerConfig{})
	err := s.Register("m", ModelSpec{WF: wf, Ham: ham, Config: Config{
		MaxBatch: 16, MaxPending: 1 << 14,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ref := core.NewBatchedEval(wf, core.EvalAuto, 1)
	refHam := func(configs [][]int) []float64 {
		b := sampler.NewBatch(len(configs), n)
		for k, row := range configs {
			copy(b.Row(k), row)
		}
		out := make([]float64, b.N)
		ref.LocalEnergies(ham, b, 1, out)
		return out
	}
	type workload struct {
		configs [][]int
		lp, en  []float64
	}
	works := make([]workload, clients)
	for c := range works {
		rows := 1 + c%5
		cfgs := clientConfigs(c, rows, n)
		works[c] = workload{configs: cfgs, lp: directLogPsi(wf, cfgs), en: refHam(cfgs)}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := works[c]
			for it := 0; it < iters; it++ {
				var got, want []float64
				var err error
				if (c+it)%2 == 0 {
					got, err = s.LogPsi(context.Background(), "m", w.configs)
					want = w.lp
				} else {
					got, err = s.LocalEnergy(context.Background(), "m", w.configs)
					want = w.en
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d it %d: %w", c, it, err)
					return
				}
				if len(got) != len(want) {
					errCh <- fmt.Errorf("client %d it %d: %d values, want %d", c, it, len(got), len(want))
					return
				}
				for k := range got {
					if got[k] != want[k] {
						errCh <- fmt.Errorf("client %d it %d row %d: cross-wired? served %v != own %v", c, it, k, got[k], want[k])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, _ := s.ModelStats("m")
	if want := uint64(clients * iters); st.Requests != want {
		t.Fatalf("served %d requests, want %d", st.Requests, want)
	}
	m, _ := s.lookup("m")
	if p := m.pendingRows.Load(); p != 0 {
		t.Fatalf("pending rows did not drain: %d", p)
	}
}

// TestCoalescerCancelAndTimeout cancels requests while they sit in the
// queue, then races cancellations against a live dispatcher: every submit
// must terminate with either its correct value or a context error, never
// hang, and the admission reservation must drain to zero — including for
// requests whose callers abandoned them in the queue.
func TestCoalescerCancelAndTimeout(t *testing.T) {
	const n, h = 8, 10
	wf := buildWF("made", n, h, 11)
	s, m, start := parkedModel(t, ModelSpec{WF: wf, Config: Config{
		MaxBatch: 1 << 12, MaxPending: 1 << 14,
	}})

	const clients, iters = 32, 10
	works := make([][][]int, clients)
	wants := make([][]float64, clients)
	for c := range works {
		works[c] = clientConfigs(c, 1+c%3, n)
		wants[c] = directLogPsi(wf, works[c])
	}
	var okCount, cancelCount atomic.Int64
	errCh := make(chan error, 2*clients*iters)
	// op is one submit of client c: plain, with a short deadline, or
	// pre-cancelled, by it.
	op := func(c, it int) {
		ctx := context.Background()
		var cancel context.CancelFunc
		switch it % 3 {
		case 1: // deadline: expires in the queue while parked, races the dispatcher when live
			ctx, cancel = context.WithTimeout(ctx, time.Duration(c%5)*time.Millisecond)
		case 2: // pre-cancelled
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}
		got, err := s.LogPsi(ctx, "m", works[c])
		if cancel != nil {
			cancel()
		}
		switch {
		case err == nil:
			for k := range got {
				if got[k] != wants[c][k] {
					errCh <- fmt.Errorf("client %d it %d row %d: %v != %v", c, it, k, got[k], wants[c][k])
					return
				}
			}
			okCount.Add(1)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			cancelCount.Add(1)
		default:
			errCh <- fmt.Errorf("client %d it %d: unexpected error %v", c, it, err)
		}
	}

	// Parked: every op is admitted and queued, the plain ones block, and the
	// other two kinds return a context error with their request — and its
	// reservation — still in the queue.
	var wg sync.WaitGroup
	var plain, doomed, rows int
	for c := 0; c < clients; c++ {
		for it := 0; it < iters; it++ {
			if it%3 == 0 {
				plain++
			} else {
				doomed++
			}
			rows += len(works[c])
			wg.Add(1)
			go func(c, it int) {
				defer wg.Done()
				op(c, it)
			}(c, it)
		}
	}
	waitFor(t, "every op queued and every doomed caller gone", func() bool {
		return len(m.reqCh) == plain+doomed && cancelCount.Load() == int64(doomed)
	})
	if p := m.pendingRows.Load(); p != int64(rows) {
		t.Fatalf("parked reservation %d rows, want %d (abandoned requests keep theirs until the dispatcher completes them)", p, rows)
	}
	start()
	wg.Wait()
	waitFor(t, "reservation drained", func() bool { return m.pendingRows.Load() == 0 })
	st := m.stats()
	if okCount.Load() != int64(plain) || st.Requests != uint64(plain) || st.Canceled != uint64(doomed) {
		t.Fatalf("parked phase: ok=%d served=%d cancelled-in-queue=%d, want %d/%d/%d",
			okCount.Load(), st.Requests, st.Canceled, plain, plain, doomed)
	}

	// Live: the same mix from closed-loop clients against the running
	// dispatcher, where a deadline may fire before, during or after the
	// dispatch that carries its request.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				op(c, it)
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := okCount.Load() + cancelCount.Load(); got != 2*clients*iters {
		t.Fatalf("%d ops accounted for, want %d", got, 2*clients*iters)
	}
	// The dispatcher owns every admitted request to completion, so the
	// reservation must drain even for abandoned waits.
	waitFor(t, "reservation drained", func() bool { return m.pendingRows.Load() == 0 })
}

// TestAdmissionControl pins the rejection path: with a tiny MaxPending and
// a parked dispatcher, exactly MaxPending rows are admitted and the rest
// bounce with ErrOverloaded — and every admitted request still completes
// correctly once the dispatcher runs.
func TestAdmissionControl(t *testing.T) {
	const n, h = 8, 10
	const maxPending = 8
	const attempts = 24
	wf := buildWF("made", n, h, 13)
	s, m, start := parkedModel(t, ModelSpec{WF: wf, Config: Config{
		MaxBatch: 1 << 12, MaxPending: maxPending,
	}})

	cfgs := clientConfigs(0, 1, n)
	want := directLogPsi(wf, cfgs)

	// Nothing completes (releasing reservations) while the dispatcher is
	// parked, so the first maxPending attempts fill the bound.
	results := make(chan error, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.LogPsi(context.Background(), "m", cfgs)
			if err == nil && got[0] != want[0] {
				err = fmt.Errorf("wrong value %v != %v", got[0], want[0])
			}
			results <- err
		}()
		// Serialize admission decisions: attempt i is queued or rejected
		// before attempt i+1 starts.
		waitFor(t, "admission decision", func() bool {
			return len(m.reqCh)+int(m.rejected.Load()) == i+1
		})
	}
	if q, p := len(m.reqCh), m.pendingRows.Load(); q != maxPending || p != maxPending {
		t.Fatalf("parked queue holds %d requests / %d rows, want %d", q, p, maxPending)
	}
	start()
	wg.Wait()
	close(results)
	var ok, rejected int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok != maxPending || rejected != attempts-maxPending {
		t.Fatalf("admission split ok=%d rejected=%d, want %d/%d", ok, rejected, maxPending, attempts-maxPending)
	}
	st, _ := s.ModelStats("m")
	if st.Rejected != uint64(rejected) {
		t.Fatalf("rejected counter %d, want %d", st.Rejected, rejected)
	}
}

// TestSwapIsQueueBarrier pins the hot-swap ordering semantics directly on
// the queue: requests enqueued before a swap see the old parameters,
// requests enqueued after it see the new — even when all three are queued
// before the dispatcher takes the first, so one collect cycle meets them.
func TestSwapIsQueueBarrier(t *testing.T) {
	const n, h = 8, 10
	live := buildWF("made", n, h, 21)
	next := buildWF("made", n, h, 22)
	cfgs := clientConfigs(3, 2, n)
	wantOld := directLogPsi(live, cfgs)
	wantNew := directLogPsi(next, cfgs)
	for k := range wantOld {
		if wantOld[k] == wantNew[k] {
			t.Fatalf("degenerate fixture: old and new params agree on row %d", k)
		}
	}

	s, m, start := parkedModel(t, ModelSpec{WF: live, Config: Config{
		MaxBatch: 1 << 12, MaxPending: 1 << 12,
	}})

	type outcome struct {
		got []float64
		err error
	}
	// enqueue runs f on its own goroutine and returns once f's request is
	// the queued-th entry of the parked queue.
	enqueue := func(queued int, f func() outcome) chan outcome {
		ch := make(chan outcome, 1)
		go func() { ch <- f() }()
		waitFor(t, "enqueue", func() bool { return len(m.reqCh) == queued })
		return ch
	}
	logPsi := func() outcome {
		got, err := s.LogPsi(context.Background(), "m", cfgs)
		return outcome{got, err}
	}
	// Queue strictly: request A, then the swap, then request B. The barrier
	// logic alone must split what would otherwise be one group.
	chA := enqueue(1, logPsi)
	chSwap := enqueue(2, func() outcome { return outcome{err: s.Swap(context.Background(), "m", next)} })
	chB := enqueue(3, logPsi)
	start()
	a, sw, b := <-chA, <-chSwap, <-chB
	if a.err != nil {
		t.Fatalf("A: %v", a.err)
	}
	if sw.err != nil {
		t.Fatalf("swap: %v", sw.err)
	}
	if b.err != nil {
		t.Fatalf("B: %v", b.err)
	}
	for k := range a.got {
		if a.got[k] != wantOld[k] {
			t.Fatalf("pre-swap request row %d: %v != old %v", k, a.got[k], wantOld[k])
		}
	}
	for k := range b.got {
		if b.got[k] != wantNew[k] {
			t.Fatalf("post-swap request row %d: %v != new %v", k, b.got[k], wantNew[k])
		}
	}
	st, _ := s.ModelStats("m")
	if st.Swaps != 1 || st.Batches != 2 {
		t.Fatalf("swaps=%d batches=%d, want 1 swap between 2 batches", st.Swaps, st.Batches)
	}
}

// TestYieldFoldsOnOneThread pins what the yield in collect buys. On one
// thread the first send of a burst makes the dispatcher the next goroutine
// to run, ahead of the burst's other callers; a collect that drained
// without yielding would find the queue empty and dispatch about one row at
// a time (the never-wait coalescer ROADMAP measured and rejected). With the
// yield the runnable callers enqueue first and the burst folds. A serial
// caller has nobody to fold with and must see one batch per request. Counts
// only; no clocks.
func TestYieldFoldsOnOneThread(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, h = 8, 10
	const callers, perCaller = 64, 50
	wf := buildWF("made", n, h, 17)
	s := served(t, ServerConfig{}, "m", ModelSpec{WF: wf})

	works := make([][][]int, callers)
	wants := make([][]float64, callers)
	for c := range works {
		works[c] = clientConfigs(c, 1, n)
		wants[c] = directLogPsi(wf, works[c])
	}
	// closedLoop runs one caller and reports the first mismatch.
	closedLoop := func(c, iters int) error {
		for it := 0; it < iters; it++ {
			got, err := s.LogPsi(context.Background(), "m", works[c])
			if err != nil {
				return fmt.Errorf("caller %d it %d: %w", c, it, err)
			}
			if got[0] != wants[c][0] {
				return fmt.Errorf("caller %d it %d: served %v != direct %v", c, it, got[0], wants[c][0])
			}
		}
		return nil
	}

	if err := closedLoop(0, 200); err != nil {
		t.Fatal(err)
	}
	serial, _ := s.ModelStats("m")
	if serial.Requests != 200 || serial.Batches != serial.Requests {
		t.Fatalf("serial caller: %d requests in %d batches, want one batch each", serial.Requests, serial.Batches)
	}

	errCh := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := closedLoop(c, perCaller); err != nil {
				errCh <- err
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, _ := s.ModelStats("m")
	rows, batches := st.Rows-serial.Rows, st.Batches-serial.Batches
	if rows != callers*perCaller {
		t.Fatalf("served %d rows, want %d", rows, callers*perCaller)
	}
	t.Logf("%d closed-loop callers: %d rows in %d batches (%.1f rows/batch)", callers, rows, batches, float64(rows)/float64(batches))
	if rows < 16*batches {
		t.Fatalf("fold below 16 rows/batch: the dispatcher is running ahead of runnable callers")
	}
}
