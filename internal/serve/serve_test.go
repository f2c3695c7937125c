package serve

// Coalescing-invariance conformance suite: the serve-path extension of the
// dist package's TestEvalConformanceMatrix table doctrine. For every model
// family x batch cap x client count, every served LogPsi /
// local-energy / sample answer must be bitwise == (exact, no tolerance) to
// the direct single-caller evaluation of that request's configurations
// alone — no matter how the coalescer folded concurrent strangers into
// shared GEMM dispatches.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// buildWF constructs one model family instance for the serve suites.
func buildWF(kind string, n, h int, seed uint64) nn.Wavefunction {
	wf, err := nn.New(kind, n, h, rng.New(seed))
	if err != nil {
		panic(err)
	}
	return wf
}

// clientConfigs derives client c's deterministic workload.
func clientConfigs(c, rows, sites int) [][]int {
	b := sampler.NewBatch(rows, sites)
	rng.New(uint64(9000 + c)).FillBits(b.Bits)
	out := make([][]int, rows)
	for k := range out {
		out[k] = b.Row(k)
	}
	return out
}

// served is the serve tests' server fixture: a Server under cfg with spec
// registered as name (nothing registered when spec.WF is nil), closed
// when the test ends.
func served(t testing.TB, cfg ServerConfig, name string, spec ModelSpec) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(s.Close)
	if spec.WF != nil {
		if err := s.Register(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestServeConformanceMatrix(t *testing.T) {
	const n, h, rowsPerReq = 10, 12, 2
	// The axis is MaxBatch: no fold, a cap most groups hit, a cap none
	// does. The cell names date from the timer window that rode along
	// until PR 20; they stay because the test floor pins cells by name.
	caps := []struct {
		name     string
		maxBatch int
	}{
		{"perRequest", 1},
		{"smallWindow", 8},
		{"wideWindow", 1024},
	}
	clientCounts := []int{1, 3, 64, 512}

	for _, kind := range nn.Kinds() {
		for _, bc := range caps {
			t.Run(kind+"/"+bc.name, func(t *testing.T) {
				wf := buildWF(kind, n, h, 41)
				ham := hamiltonian.RandomTIM(n, rng.New(43))
				_, sampleable := wf.(nn.BatchAncestralBuilder)

				// Direct single-caller references, computed before any
				// traffic: one batch per client holding only that client's
				// rows, through the same shared core dispatch a lone
				// caller would use.
				maxClients := clientCounts[len(clientCounts)-1]
				ref := core.NewBatchedEval(wf, core.EvalAuto, 1)
				wantLP := make([][]float64, maxClients)
				wantEN := make([][]float64, maxClients)
				wantSM := make([][][]int, maxClients)
				for c := 0; c < maxClients; c++ {
					cfgs := clientConfigs(c, rowsPerReq, n)
					b := sampler.NewBatch(rowsPerReq, n)
					for k, row := range cfgs {
						copy(b.Row(k), row)
					}
					wantLP[c] = make([]float64, rowsPerReq)
					ref.LogPsi(b, wantLP[c])
					wantEN[c] = make([]float64, rowsPerReq)
					ref.LocalEnergies(ham, b, 1, wantEN[c])
					if sampleable {
						sb := sampler.NewBatch(rowsPerReq, n)
						smp := sampler.NewAutoBatched(n, wf.(nn.BatchAncestralBuilder), 1, rng.New(uint64(777+c)))
						smp.Sample(sb)
						want := make([][]int, rowsPerReq)
						for k := range want {
							want[k] = append([]int(nil), sb.Row(k)...)
						}
						wantSM[c] = want
					}
				}

				cfg := Config{MaxBatch: bc.maxBatch, MaxPending: 4 * maxClients * rowsPerReq}
				s := served(t, ServerConfig{}, "m", ModelSpec{WF: wf, Ham: ham, Config: cfg})

				for _, clients := range clientCounts {
					iters := 2
					if clients >= 512 {
						iters = 1
					}
					errCh := make(chan error, clients)
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							ctx := context.Background()
							cfgs := clientConfigs(c, rowsPerReq, n)
							for it := 0; it < iters; it++ {
								lp, err := s.LogPsi(ctx, "m", cfgs)
								if err != nil {
									errCh <- fmt.Errorf("client %d logpsi: %w", c, err)
									return
								}
								for k := range lp {
									if lp[k] != wantLP[c][k] {
										errCh <- fmt.Errorf("client %d logpsi row %d: served %v != direct %v", c, k, lp[k], wantLP[c][k])
										return
									}
								}
								en, err := s.LocalEnergy(ctx, "m", cfgs)
								if err != nil {
									errCh <- fmt.Errorf("client %d energy: %w", c, err)
									return
								}
								for k := range en {
									if en[k] != wantEN[c][k] {
										errCh <- fmt.Errorf("client %d energy row %d: served %v != direct %v", c, k, en[k], wantEN[c][k])
										return
									}
								}
								if sampleable {
									sm, err := s.Sample(ctx, "m", rowsPerReq, uint64(777+c))
									if err != nil {
										errCh <- fmt.Errorf("client %d sample: %w", c, err)
										return
									}
									for k := range sm {
										for i := range sm[k] {
											if sm[k][i] != wantSM[c][k][i] {
												errCh <- fmt.Errorf("client %d sample row %d bit %d: served %d != direct %d",
													c, k, i, sm[k][i], wantSM[c][k][i])
												return
											}
										}
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
				}
				// The coalescer actually coalesced under the wider caps with
				// many clients (sanity that the suite exercised the fold,
				// not a degenerate one-request-per-batch path).
				st, err := s.ModelStats("m")
				if err != nil {
					t.Fatal(err)
				}
				if bc.maxBatch > 1 && st.Batches > 0 && st.Rows <= st.Batches {
					t.Logf("note: %s/%s saw no multi-row batches (rows=%d batches=%d)", kind, bc.name, st.Rows, st.Batches)
				}
				if st.Rows == 0 {
					t.Fatalf("no rows served")
				}
			})
		}
	}
}

// TestServeSampleUnsupported pins the RBM sampling rejection: the only
// non-autoregressive family cannot be exactly sampled, and the server must
// say so rather than serve garbage.
func TestServeSampleUnsupported(t *testing.T) {
	wf := buildWF("rbm", 6, 8, 1)
	s := served(t, ServerConfig{}, "r", ModelSpec{WF: wf})
	if _, err := s.Sample(context.Background(), "r", 2, 1); err == nil {
		t.Fatal("RBM sample did not error")
	}
	// Energy without a registered Hamiltonian is likewise unsupported.
	if _, err := s.LocalEnergy(context.Background(), "r", clientConfigs(0, 1, 6)); err == nil {
		t.Fatal("energy without Hamiltonian did not error")
	}
}

// TestServeValidation pins the request-validation and registry teeth.
func TestServeValidation(t *testing.T) {
	wf := buildWF("made", 6, 8, 1)
	s := served(t, ServerConfig{}, "m", ModelSpec{WF: wf, Ham: hamiltonian.RandomTIM(6, rng.New(2))})
	ctx := context.Background()
	if _, err := s.LogPsi(ctx, "nope", clientConfigs(0, 1, 6)); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := s.LogPsi(ctx, "m", nil); err == nil {
		t.Fatal("empty configs accepted")
	}
	if _, err := s.LogPsi(ctx, "m", [][]int{{0, 1}}); err == nil {
		t.Fatal("wrong site count accepted")
	}
	if _, err := s.LogPsi(ctx, "m", [][]int{{0, 1, 2, 0, 1, 0}}); err == nil {
		t.Fatal("non-bit value accepted")
	}
	if _, err := s.Sample(ctx, "m", 0, 1); err == nil {
		t.Fatal("zero sample count accepted")
	}
	if err := s.Register("m", ModelSpec{WF: wf}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.Register("", ModelSpec{WF: wf}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Register("x", ModelSpec{}); err == nil {
		t.Fatal("nil wavefunction accepted")
	}
}
