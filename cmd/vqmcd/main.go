// Command vqmcd is the long-running inference server over internal/serve:
// a checkpoint-backed model registry behind a JSON HTTP API, with
// cross-request batch coalescing on every evaluation endpoint and a
// bounded Max-Cut solver pool.
//
//	vqmcd -demo                                # serve a demo MADE model on :8089
//	vqmcd -model psi=final.ckpt                # serve a trained checkpoint
//	vqmcd -model a=a.ckpt -model b=b.ckpt      # several models, one server
//	vqmcd -demo -max-batch 256                 # coalescer tuning
//
// Endpoints (see internal/serve/http.go for payloads):
//
//	GET  /healthz                        liveness
//	GET  /v1/models                      registry listing
//	GET  /v1/models/{name}/stats         serving counters
//	POST /v1/models/{name}/logpsi        log|psi| per configuration
//	POST /v1/models/{name}/energy        local energies (demo model only:
//	                                     checkpoints carry no Hamiltonian)
//	POST /v1/models/{name}/sample        exact ancestral samples
//	POST /v1/models/{name}/swap          hot-swap to a new checkpoint
//	                                     (paths resolve inside -ckpt-dir;
//	                                     disabled unless -ckpt-dir is set)
//	POST /v1/maxcut                      one Max-Cut solve
//
// Every served value is bitwise identical to the direct single-caller
// evaluation of that request alone — coalescing is invisible in results.
// Shutdown is graceful: SIGINT/SIGTERM stops accepting HTTP, finishes
// in-flight requests, then drains the per-model queues.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/serve"
)

// modelFlags collects repeated -model name=path pairs.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string { return fmt.Sprintf("%d models", len(*m)) }

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vqmcd: ")
	var models modelFlags
	var (
		addr       = flag.String("addr", ":8089", "listen address")
		demo       = flag.Bool("demo", false, "register a demo MADE model named \"demo\" with a random TIM Hamiltonian")
		n          = flag.Int("n", 16, "demo model sites")
		hidden     = flag.Int("hidden", 32, "demo model hidden width")
		seed       = flag.Uint64("seed", 1, "demo model parameter seed")
		maxBatch   = flag.Int("max-batch", 0, "max rows per coalesced dispatch (0: default 1024)")
		maxPending = flag.Int("max-pending", 0, "admission bound, rows queued+in-flight (0: default 4096)")
		workers    = flag.Int("workers", 0, "eval workers per dispatch (0: GOMAXPROCS)")
		maxSolves  = flag.Int("max-solves", 0, "concurrent Max-Cut solves (0: default 4)")
		maxCutN    = flag.Int("maxcut-n", 0, "max vertices per served Max-Cut instance (0: default 4096)")
		ckptDir    = flag.String("ckpt-dir", "", "directory hot-swap checkpoints load from (empty: swap endpoint disabled)")
	)
	flag.Var(&models, "model", "serve a checkpoint as name=path (repeatable)")
	flag.Parse()

	if !*demo && len(models) == 0 {
		log.Fatal("nothing to serve: pass -demo or at least one -model name=path")
	}
	mcfg := serve.Config{
		MaxBatch:   *maxBatch,
		MaxPending: *maxPending,
		Workers:    *workers,
	}
	s := serve.NewServer(serve.ServerConfig{
		MaxSolves:     *maxSolves,
		MaxCutNodes:   *maxCutN,
		CheckpointDir: *ckptDir,
	})
	if *demo {
		r := rng.New(*seed)
		ham := hamiltonian.RandomTIM(*n, r)
		wf := nn.NewMADE(*n, *hidden, r.Split())
		if err := s.Register("demo", serve.ModelSpec{WF: wf, Ham: ham, Config: mcfg}); err != nil {
			log.Fatal(err)
		}
		log.Printf("registered demo MADE n=%d hidden=%d seed=%d", *n, *hidden, *seed)
	}
	for _, m := range models {
		wf, err := nn.LoadFile(m.path)
		if err != nil {
			log.Fatalf("load %s: %v", m.path, err)
		}
		if err := s.Register(m.name, serve.ModelSpec{WF: wf, Config: mcfg}); err != nil {
			log.Fatal(err)
		}
		log.Printf("registered %s (%s, %d sites) from %s", m.name, nn.KindName(wf), wf.NumSites(), m.path)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: serve.NewHandler(s)}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case <-ctx.Done():
		log.Print("shutting down")
	case err := <-errCh:
		log.Fatal(err)
	}
	// Stop accepting connections and finish in-flight HTTP requests first,
	// then drain the per-model dispatch queues.
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	s.Close()
	log.Print("drained")
}
