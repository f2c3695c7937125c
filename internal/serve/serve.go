// Package serve is the inference service that joins the repo's two halves
// into a product: trained wavefunctions with cheap batched evaluation
// (nn.BatchEvaluator through core.BatchedEval) and combinatorial
// workloads (Max-Cut over internal/maxcut). A Server holds a
// checkpoint-backed model registry and serves concurrent LogPsi /
// local-energy / sample queries by folding in-flight requests from many
// clients into one ConfigBatch GEMM dispatch — the same amortization the
// training hot path uses for B=1024 minibatches, applied to B=1024
// strangers.
//
// The correctness doctrine is the repo's bitwise-equivalence doctrine
// extended to traffic: a served answer is bitwise == to a direct
// single-caller core.BatchedEval call on that request's configurations
// alone, no matter how requests were coalesced. This follows from the
// nn.BatchEvaluator contract (every row's value is pinned to the scalar
// per-row value, so batch composition is invisible) and is enforced by the
// serve conformance suite with exact ==.
//
// Concurrency model: each registered model owns one dispatcher goroutine
// that is the sole toucher of the model's parameters, evaluator scratch and
// sampler — requests, checkpoint hot-swaps and drains all serialize through
// its queue, so swaps are race-free barriers between batches and no lock
// guards the hot path. Admission control is per model: a bounded count of
// pending rows, with immediate ErrOverloaded rejection beyond it.
//
// A batch forms from the work that is ready and never waits for more: the
// dispatcher takes the first queued request, yields the processor once,
// drains the queue without blocking up to MaxBatch rows, and dispatches
// (modelService.collect). Requests that arrive during a dispatch fold into
// the next one, so the fold grows with load and a lone request pays no
// queue delay. The yield replaces a 100us timer that cost a lone 64-row
// request more than its evaluation; it cannot simply be dropped, because on
// one thread the first send of a burst wakes the dispatcher ahead of the
// burst's other callers and every dispatch would carry about one row.
package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/parallel"
	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// Sentinel errors the endpoints return; the HTTP layer maps them to status
// codes.
var (
	// ErrUnknownModel reports a request for a name with no registry entry.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrOverloaded is the admission-control rejection: accepting the
	// request would exceed the model's MaxPending rows (or the server's
	// MaxSolves concurrent Max-Cut solves). Clients should back off.
	ErrOverloaded = errors.New("serve: overloaded, try again later")
	// ErrDraining reports a submit after Close began: the server finishes
	// queued work but admits nothing new.
	ErrDraining = errors.New("serve: server draining")
	// ErrUnsupported reports an operation the model cannot serve (sampling
	// a non-autoregressive model, energies with no Hamiltonian attached).
	ErrUnsupported = errors.New("serve: operation unsupported by model")
	// ErrBadRequest reports malformed request payloads (wrong site count,
	// non-bit values, non-positive sample counts).
	ErrBadRequest = errors.New("serve: bad request")
)

// Config tunes one model's coalescer and admission control. Zero values
// select the defaults; none of the knobs affect served VALUES, only
// latency, throughput and rejection behavior. None of them delays a
// request: a dispatch folds what is already queued and never waits.
type Config struct {
	// MaxBatch caps the rows folded into one dispatch (default 1024).
	// MaxBatch = 1 disables coalescing: every request is its own dispatch
	// (the per-request A/B baseline).
	MaxBatch int
	// MaxPending is the admission bound: the maximum rows queued or in
	// flight for this model before submits are rejected with ErrOverloaded
	// (default 4096). A single request larger than MaxPending is always
	// rejected.
	MaxPending int
	// Workers bounds the evaluation fan-out inside a dispatch (<= 0 means
	// GOMAXPROCS). Worker count never affects a served value.
	Workers int
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4096
	}
	if c.Workers <= 0 {
		c.Workers = parallel.MaxWorkers()
	}
	return c
}

// ModelSpec registers one model: the wavefunction, an optional Hamiltonian
// for local-energy queries, and the coalescer tuning.
type ModelSpec struct {
	// WF is the live wavefunction; it must provide a batched evaluation
	// path (nn.BatchEvaluatorBuilder — all four families do).
	WF nn.Wavefunction
	// Ham, when non-nil, enables local-energy queries against it.
	Ham hamiltonian.Hamiltonian
	// Config tunes the coalescer; zero values select defaults.
	Config Config
}

// ModelInfo describes one registry entry for listings.
type ModelInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Sites      int    `json:"sites"`
	Params     int    `json:"params"`
	Sampleable bool   `json:"sampleable"`
	HasEnergy  bool   `json:"has_energy"`
	MaxBatch   int    `json:"max_batch"`
	MaxPending int    `json:"max_pending"`
}

// Stats is a snapshot of one model's serving counters.
type Stats struct {
	// Requests is the number of requests completed successfully.
	Requests uint64 `json:"requests"`
	// Rows is the total configuration rows evaluated.
	Rows uint64 `json:"rows"`
	// Batches is the number of coalesced dispatches through the GEMM path.
	Batches uint64 `json:"batches"`
	// Rejected counts admission-control rejections (ErrOverloaded).
	Rejected uint64 `json:"rejected"`
	// Canceled counts requests that were admitted but whose context ended
	// before evaluation; they are completed without being evaluated.
	Canceled uint64 `json:"canceled"`
	// Swaps counts applied checkpoint hot-swaps.
	Swaps uint64 `json:"swaps"`
}

// ServerConfig tunes server-wide behavior. Zero values select defaults.
type ServerConfig struct {
	// MaxSolves bounds concurrent Max-Cut solves (default 4); beyond it
	// SolveMaxCut rejects with ErrOverloaded.
	MaxSolves int
	// MaxCutNodes caps the vertex count of a served Max-Cut instance
	// (default 4096). n is vetted against this cap before anything
	// request-sized is allocated — a request the admission control would
	// reject can never cost an allocation first. A solve holds
	// O(n + |E|) state plus the n x rank SDP factorization, which nears
	// n^2 only when a request asks for a rank near n.
	MaxCutNodes int
	// CheckpointDir, when non-empty, is the directory SwapFile resolves
	// checkpoint paths inside; paths must be local (no absolute paths, no
	// ".." escapes). When empty, file-based swaps are disabled with
	// ErrUnsupported — the HTTP swap endpoint must be opted into by the
	// operator, it never exposes the server filesystem by default. The
	// in-process Swap API is unaffected.
	CheckpointDir string
}

// Server is the long-running inference service: a named-model registry
// with per-model coalescing dispatchers plus the Max-Cut solver pool.
// All methods are safe for concurrent use.
type Server struct {
	cfg      ServerConfig
	mu       sync.RWMutex
	models   map[string]*modelService
	draining bool
	solves   chan struct{}
	solveWG  sync.WaitGroup
}

// NewServer builds an empty server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxSolves <= 0 {
		cfg.MaxSolves = 4
	}
	if cfg.MaxCutNodes <= 0 {
		cfg.MaxCutNodes = 4096
	}
	return &Server{
		cfg:    cfg,
		models: make(map[string]*modelService),
		solves: make(chan struct{}, cfg.MaxSolves),
	}
}

// Register adds a model under name and starts its dispatcher. The model
// must provide a batched evaluation path; registering a duplicate name or
// registering on a draining server errors.
func (s *Server) Register(name string, spec ModelSpec) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if spec.WF == nil {
		return fmt.Errorf("serve: model %q has nil wavefunction", name)
	}
	cfg := spec.Config.withDefaults()
	be := core.NewBatchedEval(spec.WF, core.EvalAuto, cfg.Workers)
	if be == nil {
		return fmt.Errorf("serve: model %q (%T) has no batched evaluation path", name, spec.WF)
	}
	m := newModelService(name, spec.WF, spec.Ham, be, cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if _, dup := s.models[name]; dup {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	s.models[name] = m
	m.start()
	return nil
}

// Close drains the server: new submits are rejected with ErrDraining,
// queued requests complete, every dispatcher exits, and in-flight Max-Cut
// solves finish. Close is idempotent and returns after the drain.
func (s *Server) Close() {
	// Setting the flag twice is harmless; a second caller still waits for
	// the dispatchers below, so every Close returns after the drain.
	s.mu.Lock()
	s.draining = true
	ms := make([]*modelService, 0, len(s.models))
	for _, m := range s.models {
		ms = append(ms, m)
	}
	s.mu.Unlock()
	for _, m := range ms {
		m.close()
	}
	s.solveWG.Wait()
}

// Models lists the registry, sorted by name.
func (s *Server) Models() []ModelInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ModelInfo, 0, len(s.models))
	for name, m := range s.models {
		out = append(out, ModelInfo{
			Name:       name,
			Kind:       nn.KindName(m.wf),
			Sites:      m.sites,
			Params:     m.wf.NumParams(),
			Sampleable: m.smp != nil,
			HasEnergy:  m.ham != nil,
			MaxBatch:   m.cfg.MaxBatch,
			MaxPending: m.cfg.MaxPending,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelStats returns a snapshot of one model's serving counters.
func (s *Server) ModelStats(name string) (Stats, error) {
	m, err := s.lookup(name)
	if err != nil {
		return Stats{}, err
	}
	return m.stats(), nil
}

func (s *Server) lookup(name string) (*modelService, error) {
	s.mu.RLock()
	m := s.models[name]
	s.mu.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, nil
}

// flatten validates configs (each length sites, bits in {0,1}) and packs
// them row-major into a fresh slice the request owns.
func flatten(configs [][]int, sites int) ([]int, int, error) {
	if len(configs) == 0 {
		return nil, 0, fmt.Errorf("%w: no configurations", ErrBadRequest)
	}
	bits := make([]int, len(configs)*sites)
	for k, row := range configs {
		if len(row) != sites {
			return nil, 0, fmt.Errorf("%w: config %d has %d sites, model has %d", ErrBadRequest, k, len(row), sites)
		}
		for i, b := range row {
			if b != 0 && b != 1 {
				return nil, 0, fmt.Errorf("%w: config %d site %d is %d, want 0 or 1", ErrBadRequest, k, i, b)
			}
			bits[k*sites+i] = b
		}
	}
	return bits, len(configs), nil
}

// LogPsi serves log|psi(x)| for each configuration. The returned slice is
// bitwise == to a direct core.BatchedEval.LogPsi (equivalently per-row
// scalar model.LogPsi) on exactly these configurations, regardless of what
// other requests were coalesced into the same dispatch.
func (s *Server) LogPsi(ctx context.Context, model string, configs [][]int) ([]float64, error) {
	m, err := s.lookup(model)
	if err != nil {
		return nil, err
	}
	bits, rows, err := flatten(configs, m.sites)
	if err != nil {
		return nil, err
	}
	r := &request{kind: kindLogPsi, rows: rows, bits: bits, out: make([]float64, rows)}
	if err := m.submit(ctx, r); err != nil {
		return nil, err
	}
	return r.out, nil
}

// LocalEnergy serves the local energy of each configuration under the
// model's registered Hamiltonian, bitwise == to a direct
// core.BatchedEval.LocalEnergies (equivalently scalar core.LocalEnergies)
// on exactly these configurations.
func (s *Server) LocalEnergy(ctx context.Context, model string, configs [][]int) ([]float64, error) {
	m, err := s.lookup(model)
	if err != nil {
		return nil, err
	}
	if m.ham == nil {
		return nil, fmt.Errorf("%w: model %q has no Hamiltonian", ErrUnsupported, model)
	}
	bits, rows, err := flatten(configs, m.sites)
	if err != nil {
		return nil, err
	}
	r := &request{kind: kindEnergy, rows: rows, bits: bits, out: make([]float64, rows)}
	if err := m.submit(ctx, r); err != nil {
		return nil, err
	}
	return r.out, nil
}

// Sample serves count exact ancestral samples from an autoregressive
// model. The sampled bits are bitwise == to a direct
// sampler.NewAutoBatched(sites, model, w, rng.New(seed)) draw of a
// count-row batch, at any worker count w: the server pre-draws the same
// uniforms from the same single stream at submit time, and each sample's
// bits are a function of the parameters and its own uniforms alone by the
// nn.BatchAncestralSampler contract (strangers' rows may share a prefix's
// conditional, never change it), so coalescing never changes a sampled
// bit.
func (s *Server) Sample(ctx context.Context, model string, count int, seed uint64) ([][]int, error) {
	m, err := s.lookup(model)
	if err != nil {
		return nil, err
	}
	if m.smp == nil {
		return nil, fmt.Errorf("%w: model %q is not exactly sampleable", ErrUnsupported, model)
	}
	if count < 1 {
		return nil, fmt.Errorf("%w: sample count %d", ErrBadRequest, count)
	}
	if count > m.cfg.MaxPending {
		// submit would reject this row count anyway; rejecting here keeps
		// the admission bound ahead of the count*sites buffers and uniform
		// draws below, so an absurd count costs nothing before it is shed
		// (and count*m.sites can never overflow).
		m.rejected.Add(1)
		return nil, fmt.Errorf("%w: sample count %d exceeds admission bound %d", ErrOverloaded, count, m.cfg.MaxPending)
	}
	u := make([]float64, count*m.sites)
	stream := rng.New(seed).Split() // sampler.Auto's one stream
	for i := range u {
		u[i] = stream.Float64()
	}
	r := &request{kind: kindSample, rows: count, u: u, outBits: make([]int, count*m.sites)}
	if err := m.submit(ctx, r); err != nil {
		return nil, err
	}
	rows := make([][]int, count)
	for k := range rows {
		rows[k] = r.outBits[k*m.sites : (k+1)*m.sites]
	}
	return rows, nil
}

// Swap hot-swaps the live model onto wf's parameters. The swap is applied
// by the model's dispatcher as a queue barrier: requests admitted before
// the swap are evaluated on the old parameters, requests admitted after it
// on the new — no batch ever mixes the two. The architectures must match
// (nn.HotSwapParams validates kind, sites and parameter count).
//
// A swap is a queue entry like any other and may be shed like one: when the
// model's queue is full it returns ErrOverloaded (HTTP 429) without touching
// the live parameters, and ErrDraining once the server is closing; the
// caller retries, as for any shed request.
func (s *Server) Swap(ctx context.Context, model string, wf nn.Wavefunction) error {
	m, err := s.lookup(model)
	if err != nil {
		return err
	}
	if wf == nil {
		return fmt.Errorf("%w: nil wavefunction", ErrBadRequest)
	}
	r := &request{kind: kindSwap, swapTo: wf}
	return m.submit(ctx, r)
}

// SwapFile loads a checkpoint and hot-swaps the live model onto it — the
// serving form of "deploy the new checkpoint". path is resolved inside
// ServerConfig.CheckpointDir and must be local to it (relative, no ".."),
// so a network client can only reach checkpoints the operator staged
// there; with no CheckpointDir configured, file-based swaps are disabled.
// The loaded swap queues as Swap's does and is shed the same way
// (ErrOverloaded, HTTP 429, live model untouched) when the queue is full.
func (s *Server) SwapFile(ctx context.Context, model, path string) error {
	if s.cfg.CheckpointDir == "" {
		return fmt.Errorf("%w: file-based swap disabled (no checkpoint directory configured)", ErrUnsupported)
	}
	if !filepath.IsLocal(path) {
		return fmt.Errorf("%w: checkpoint path %q must be relative, inside the checkpoint directory", ErrBadRequest, path)
	}
	wf, err := nn.LoadFile(filepath.Join(s.cfg.CheckpointDir, path))
	if err != nil {
		// An unreadable or corrupt checkpoint is the caller's problem: the
		// live model is untouched, so surface it as a request error.
		return fmt.Errorf("%w: load checkpoint: %v", ErrBadRequest, err)
	}
	return s.Swap(ctx, model, wf)
}
