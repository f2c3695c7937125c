package serve

// FuzzCoalescer drives a coalescer with a byte-string-derived configuration
// and operation stream — concurrent submits, cancellations, and hot-swaps
// against fuzzer-chosen batch/admission tuning and dispatcher lifecycle
// (live, drained mid-stream, or parked until the queue has filled) — and
// holds the lifecycle invariants: every operation terminates with either a
// bitwise-correct value or a declared error (ErrOverloaded / ErrDraining /
// context error), nothing hangs, and the admission reservation drains to
// zero. Runs in CI's fuzz smoke alongside FuzzChunkBounds.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

func FuzzCoalescer(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x13, 0x37})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 64 {
			t.Skip()
		}
		const n, h = 7, 8
		at := func(i int) byte { return ops[i%len(ops)] }

		// Fuzzer-chosen tuning and lifecycle. The dispatcher runs from the
		// start (live), runs and is drained while operations are in flight
		// (drained), or stays parked until every operation has been queued
		// or shed (parked) — the shape that fills the queue, so a stream
		// with more swaps than queue slots must shed one.
		maxBatch := 1 + int(at(0))%16
		maxPending := 1 + int(at(1))%12
		const live, drained, parked = 0, 1, 2
		lifecycle := at(2) % 3

		wfA := buildWF("made", n, h, 71)
		wfB := buildWF("made", n, h, 72)
		serving := buildWF("made", n, h, 73)
		if err := nn.HotSwapParams(serving, wfA); err != nil {
			t.Fatal(err)
		}
		s, m, start := parkedModel(t, ModelSpec{WF: serving, Config: Config{
			MaxBatch: maxBatch, MaxPending: maxPending,
		}})
		if lifecycle != parked {
			start()
		}

		// Per-workload references under both parameter sets: any served
		// value must equal one of them, wholesale.
		const workloads = 4
		type ref struct {
			configs [][]int
			a, b    []float64
		}
		refs := make([]ref, workloads)
		for wl := range refs {
			cfgs := clientConfigs(100+wl, 1+wl%2, n)
			refs[wl] = ref{configs: cfgs, a: directLogPsi(wfA, cfgs), b: directLogPsi(wfB, cfgs)}
		}

		var wg sync.WaitGroup
		errCh := make(chan error, len(ops))
		for i := range ops {
			op := at(i)
			wg.Add(1)
			switch op % 8 {
			case 6: // hot-swap
				go func(i int) {
					defer wg.Done()
					src := wfA
					if at(i+1)%2 == 0 {
						src = wfB
					}
					// A swap is a queue entry: a full queue sheds it like
					// any submit (see Server.Swap).
					if err := s.Swap(context.Background(), "m", src); err != nil && !errors.Is(err, ErrDraining) && !errors.Is(err, ErrOverloaded) {
						errCh <- fmt.Errorf("op %d swap: %v", i, err)
					}
				}(i)
			case 7: // cancelled submit
				go func(i int) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(at(i+1)%50)*time.Microsecond)
					defer cancel()
					wl := refs[int(at(i+2))%workloads]
					got, err := s.LogPsi(ctx, "m", wl.configs)
					checkOutcome(errCh, i, got, err, wl.a, wl.b)
				}(i)
			default: // plain submit
				go func(i int) {
					defer wg.Done()
					wl := refs[int(at(i+3))%workloads]
					got, err := s.LogPsi(context.Background(), "m", wl.configs)
					checkOutcome(errCh, i, got, err, wl.a, wl.b)
				}(i)
			}
		}

		// Every operation must terminate whatever the lifecycle: a hang here
		// is a found bug, not flake.
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		switch lifecycle {
		case drained:
			s.Close()
		case parked:
			waitFor(t, "every op queued or shed", func() bool {
				return len(m.reqCh)+int(m.rejected.Load()) == len(ops)
			})
			start()
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("coalescer hung: operations did not terminate")
		}
		s.Close()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if p := m.pendingRows.Load(); p != 0 {
			t.Fatalf("pending rows did not drain: %d", p)
		}
	})
}

// checkOutcome classifies one fuzz submit's result: a success must match
// parameter set A or B bitwise and wholesale; failures must be declared
// errors. Anything else is reported.
func checkOutcome(errCh chan<- error, i int, got []float64, err error, a, b []float64) {
	switch {
	case err == nil:
		matchA, matchB := true, true
		for k := range got {
			if got[k] != a[k] {
				matchA = false
			}
			if got[k] != b[k] {
				matchB = false
			}
		}
		if !matchA && !matchB {
			errCh <- fmt.Errorf("op %d: value matches neither parameter set", i)
		}
	case errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrDraining),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
	default:
		errCh <- fmt.Errorf("op %d: undeclared error %v", i, err)
	}
}

// FuzzHTTPDecode posts hostile bytes to the logpsi, energy and sample
// endpoints of a small MADE registered with a TIM Hamiltonian. Whatever the
// body, the handler must not panic and must answer 200, 400, 413 or 429
// with exactly one JSON value. A 200 must also be right: a logpsi or energy
// body carries one value per submitted row, each == the direct
// core.BatchedEval value, and a sample body carries count rows of n bits.
func FuzzHTTPDecode(f *testing.F) {
	const n, h = 4, 6
	wf := buildWF("made", n, h, 5)
	ham := hamiltonian.RandomTIM(n, rng.New(6))
	s := served(f, ServerConfig{}, "m", ModelSpec{WF: wf, Ham: ham, Config: Config{MaxPending: 64}})
	handler := NewHandler(s)
	ref := core.NewBatchedEval(wf, core.EvalAuto, 1)
	endpoints := []string{"logpsi", "energy", "sample"}

	for _, body := range []string{
		`{"configs":[[0,1,0,1],[1,1,0,0]]}`,
		`{"configs":[[0,1,0]]}`,
		`{"configs":[[0,1,0,1,1]]}`,
		`{"configs":[[2,0,0,0]]}`,
		`{"configs":[[-1,0,0,0]]}`,
		`{"configs":[[1.5,0,0,0]]}`,
		`{"configs":[[1e400,0,0,0]]}`,
		`{"count":3,"seed":7}`,
		`{"count":65,"seed":7}`,
		`null`,
		`[]`,
		`{"configs":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		`{"configs":[[0,0,0,0]],"bogus":1}`,
		`{"count":2,"seed":1}{"count":3}`,
		``,
		// Whitespace around one value, the padding TestHTTPBodyCapBoundary
		// fills to the cap with (an 8 MiB seed would slow every mutation).
		`{"configs":[[0,1,0,1]]}` + strings.Repeat(" ", 64),
		" \t\r\n" + `{"count":2,"seed":1}` + " \n",
		`{"configs":[[0,1,0,1]]}` + strings.Repeat(" ", 64) + "x",
		strings.Repeat(" ", 64),
	} {
		for e := range endpoints {
			f.Add(byte(e), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		path := endpoints[int(endpoint)%len(endpoints)]
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/m/"+path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("%s %q: status %d (%s)", path, body, rec.Code, rec.Body.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%s %q: response is not JSON: %v (%q)", path, body, err, rec.Body.Bytes())
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Fatalf("%s %q: response is more than one JSON value (%q)", path, body, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}

		if path == "sample" {
			var req sampleRequest
			var resp sampleResponse
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("sample %q served 200 but does not decode: %v", body, err)
			}
			if err := json.Unmarshal(v, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Configs) != req.Count {
				t.Fatalf("sample %q: %d rows, want %d", body, len(resp.Configs), req.Count)
			}
			for k, row := range resp.Configs {
				if len(row) != n {
					t.Fatalf("sample %q: row %d has %d sites, want %d", body, k, len(row), n)
				}
				for _, bit := range row {
					if bit != 0 && bit != 1 {
						t.Fatalf("sample %q: row %d = %v is not bits", body, k, row)
					}
				}
			}
			return
		}
		var req configsRequest
		var resp valuesResponse
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s %q served 200 but does not decode: %v", path, body, err)
		}
		if err := json.Unmarshal(v, &resp); err != nil {
			t.Fatal(err)
		}
		b := sampler.NewBatch(len(req.Configs), n)
		for k, row := range req.Configs {
			copy(b.Row(k), row)
		}
		want := make([]float64, b.N)
		if path == "logpsi" {
			ref.LogPsi(b, want)
		} else {
			ref.LocalEnergies(ham, b, 1, want)
		}
		if len(resp.Values) != len(want) {
			t.Fatalf("%s %q: %d values for %d rows", path, body, len(resp.Values), len(want))
		}
		for k := range want {
			if resp.Values[k] != want[k] {
				t.Fatalf("%s %q: row %d served %v != direct %v", path, body, k, resp.Values[k], want[k])
			}
		}
	})
}
