package serve

// Race and goroutine-leak regressions, run under -race in CI: hot-swap
// under live traffic, server drain during in-flight batches, and admission
// rejection under pressure — each ending with the elastic-package leak
// check (goroutine count returns to baseline).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/nn"
)

// leakCheck asserts the goroutine count returns to (near) baseline, with
// the retry loop of dist's supervisor tests: scheduler stragglers get a grace
// window, real leaks fail.
func leakCheck(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHotSwapUnderLiveTraffic hammers one model with concurrent LogPsi
// traffic while another goroutine repeatedly hot-swaps between two
// parameter checkpoints. Every response must be bitwise == to the direct
// evaluation under ONE of the two parameter sets — never a blend, never a
// torn read — and nothing may leak.
func TestHotSwapUnderLiveTraffic(t *testing.T) {
	const n, h = 9, 10
	before := runtime.NumGoroutine()
	wfA := buildWF("made", n, h, 31)
	wfB := buildWF("made", n, h, 32)
	cfgs := clientConfigs(5, 2, n)
	wantA := directLogPsi(wfA, cfgs)
	wantB := directLogPsi(wfB, cfgs)
	for k := range wantA {
		if wantA[k] == wantB[k] {
			t.Fatalf("degenerate fixture: params agree on row %d", k)
		}
	}

	// Serve a third copy moved onto A's parameters, so the originals stay
	// pristine references. The dispatcher starts parked: the first wave of
	// client requests and the first swap are all queued before it runs.
	live := buildWF("made", n, h, 33)
	if err := nn.HotSwapParams(live, wfA); err != nil {
		t.Fatal(err)
	}
	s, m, start := parkedModel(t, ModelSpec{WF: live, Config: Config{
		MaxBatch: 32, MaxPending: 1 << 14,
	}})

	// Clients do a fixed amount of traffic; the swapper flips parameters
	// as fast as the dispatcher lets it until all clients finish, and its
	// first swap is queued among the first wave, so the interleaving is
	// guaranteed regardless of scheduling order.
	const clients, itersPerClient = 16, 30
	var clientWG sync.WaitGroup
	errCh := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			for it := 0; it < itersPerClient; it++ {
				got, err := s.LogPsi(context.Background(), "m", cfgs)
				if err != nil {
					errCh <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				// A response must match A or B wholesale: the swap is a
				// batch barrier, so a mixed row pair means torn params.
				matchA := true
				matchB := true
				for k := range got {
					if got[k] != wantA[k] {
						matchA = false
					}
					if got[k] != wantB[k] {
						matchB = false
					}
				}
				if !matchA && !matchB {
					errCh <- fmt.Errorf("client %d: response matches neither parameter set (%v)", c, got)
					return
				}
			}
		}(c)
	}
	clientsDone := make(chan struct{})
	go func() { clientWG.Wait(); close(clientsDone) }()
	swaps := uint64(0)
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-clientsDone:
				return
			default:
			}
			src := wfA
			if i%2 == 0 {
				src = wfB
			}
			if err := s.Swap(context.Background(), "m", src); err != nil {
				errCh <- fmt.Errorf("swap %d: %v", i, err)
				return
			}
			swaps++
		}
	}()
	waitFor(t, "first wave and first swap queued", func() bool { return len(m.reqCh) == clients+1 })
	start()
	<-clientsDone
	swapWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, _ := s.ModelStats("m")
	if st.Swaps != swaps {
		t.Fatalf("swap counter %d, want %d", st.Swaps, swaps)
	}
	if want := uint64(clients * itersPerClient); st.Requests != want {
		t.Fatalf("served %d requests, want %d", st.Requests, want)
	}
	if swaps == 0 {
		t.Fatal("no swaps interleaved with traffic")
	}
	s.Close()
	leakCheck(t, before)
}

// TestDrainDuringInFlight closes the server while batches are in flight:
// every outstanding request must resolve — with its correct value (bitwise)
// if it was admitted, or ErrDraining if it arrived after the drain began —
// and no submit may hang or leak.
func TestDrainDuringInFlight(t *testing.T) {
	const n, h = 9, 10
	before := runtime.NumGoroutine()
	wf := buildWF("made", n, h, 51)
	cfgs := clientConfigs(7, 2, n)
	want := directLogPsi(wf, cfgs)

	s, m, start := parkedModel(t, ModelSpec{WF: wf, Config: Config{
		MaxBatch: 64, MaxPending: 1 << 14,
	}})

	const clients = 32
	var served, drained atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				got, err := s.LogPsi(context.Background(), "m", cfgs)
				switch {
				case err == nil:
					for k := range got {
						if got[k] != want[k] {
							errCh <- fmt.Errorf("client %d: %v != %v", c, got[k], want[k])
							return
						}
					}
					served.Add(1)
				case errors.Is(err, ErrDraining):
					drained.Add(1)
					return
				default:
					errCh <- fmt.Errorf("client %d: unexpected %v", c, err)
					return
				}
			}
		}(c)
	}
	// Every client has a request queued when the dispatcher starts and the
	// drain begins right behind it, so Close meets both queued work and
	// batches in flight. It must not hang, and it must serve what was queued.
	waitFor(t, "every client queued", func() bool { return len(m.reqCh) == clients })
	start()
	s.Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if served.Load() < clients {
		t.Fatalf("%d requests served, want at least the %d queued before the drain", served.Load(), clients)
	}
	if drained.Load() != clients {
		t.Fatalf("%d clients saw ErrDraining, want %d", drained.Load(), clients)
	}
	// Idempotent close.
	s.Close()
	leakCheck(t, before)
}

// TestAdmissionRejectionUnderRace floods a tiny-MaxPending model from many
// goroutines at once (no pacing): the split between served and rejected is
// nondeterministic beyond the first MaxPending, which are always admitted,
// but every accepted answer must be bitwise correct,
// rejections must be ErrOverloaded, the reservation must drain to zero, and
// nothing may leak.
func TestAdmissionRejectionUnderRace(t *testing.T) {
	const n, h = 8, 10
	before := runtime.NumGoroutine()
	wf := buildWF("made", n, h, 61)
	cfgs := clientConfigs(2, 1, n)
	want := directLogPsi(wf, cfgs)

	const maxPending = 4
	s, m, start := parkedModel(t, ModelSpec{WF: wf, Config: Config{
		MaxBatch: 4, MaxPending: maxPending,
	}})

	const attempts = 256
	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.LogPsi(context.Background(), "m", cfgs)
			switch {
			case err == nil:
				if got[0] != want[0] {
					errCh <- fmt.Errorf("served %v != %v", got[0], want[0])
					return
				}
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				errCh <- fmt.Errorf("unexpected %v", err)
			}
		}()
	}
	// The flood fills the bound against the parked dispatcher, which then
	// starts mid-flood: the rest race live completions for the reservation.
	waitFor(t, "admission bound filled", func() bool { return len(m.reqCh) == maxPending })
	start()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if ok.Load()+rejected.Load() != attempts {
		t.Fatalf("accounting: ok=%d rejected=%d, want sum %d", ok.Load(), rejected.Load(), attempts)
	}
	if ok.Load() < maxPending {
		t.Fatalf("%d served, want at least the %d admitted before the dispatcher started", ok.Load(), maxPending)
	}
	waitFor(t, "reservation drained", func() bool { return m.pendingRows.Load() == 0 })
	st, _ := s.ModelStats("m")
	if st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("rejected counter %d, want %d", st.Rejected, rejected.Load())
	}
	s.Close()
	leakCheck(t, before)
}
