package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/hamiltonian"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
)

// reqKind discriminates the operations a model's queue carries.
type reqKind uint8

const (
	kindLogPsi reqKind = iota
	kindEnergy
	kindSample
	kindSwap
)

// request is one client operation in flight. The request owns every buffer
// it references: inputs are copied out of caller storage at submit time and
// results land in request-owned slices, so a caller that abandons the wait
// (context cancellation) never races the dispatcher. ready is closed
// exactly once, after err/out/outBits are final — the happens-before edge
// the caller reads results through.
type request struct {
	kind reqKind
	rows int // admission-control weight (configuration rows)

	bits   []int     // kindLogPsi/kindEnergy: rows x sites input
	u      []float64 // kindSample: rows x sites pre-drawn uniforms
	swapTo nn.Wavefunction

	ctx     context.Context // set by submit; checked before evaluation
	out     []float64       // kindLogPsi/kindEnergy results
	outBits []int           // kindSample results
	err     error
	ready   chan struct{}
}

// modelService owns one registered model. Its run goroutine is the only
// code that touches the wavefunction parameters, the BatchedEval scratch
// and the ancestral sampler after start; every mutation (including
// checkpoint hot-swaps) serializes through reqCh.
type modelService struct {
	name  string
	sites int
	wf    nn.Wavefunction
	ham   hamiltonian.Hamiltonian
	be    *core.BatchedEval
	smp   nn.BatchAncestralSampler
	cfg   Config

	mu       sync.RWMutex // guards draining + the send side of reqCh
	draining bool
	reqCh    chan *request
	done     chan struct{}

	pendingRows atomic.Int64

	requests atomic.Uint64
	rowsDone atomic.Uint64
	batches  atomic.Uint64
	rejected atomic.Uint64
	canceled atomic.Uint64
	swaps    atomic.Uint64

	// Dispatcher-owned scratch, grown on demand and reused across batches.
	groupBuf []*request
	lpReqs   []*request
	enReqs   []*request
	smReqs   []*request
	bitsBuf  []int
	outBuf   []float64
	uBuf     []float64
}

func newModelService(name string, wf nn.Wavefunction, ham hamiltonian.Hamiltonian, be *core.BatchedEval, cfg Config) *modelService {
	var smp nn.BatchAncestralSampler
	if b, ok := wf.(nn.BatchAncestralBuilder); ok {
		smp = b.NewBatchAncestralSampler()
	}
	return &modelService{
		name:  name,
		sites: wf.NumSites(),
		wf:    wf,
		ham:   ham,
		be:    be,
		smp:   smp,
		cfg:   cfg,
		// Capacity above MaxPending so admission (rows) is the binding
		// bound for evaluation requests; the slack absorbs row-less swaps.
		reqCh: make(chan *request, cfg.MaxPending+16),
		done:  make(chan struct{}),
	}
}

func (m *modelService) start() {
	// Materialize lazy parameter-derived caches before serving so the
	// first batch is not surprised by a rebuild.
	nn.Prewarm(m.wf)
	go m.run()
}

// close drains this model: reject new submits, let the dispatcher finish
// everything queued, and wait for it to exit.
func (m *modelService) close() {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	if !already {
		close(m.reqCh)
	}
	m.mu.Unlock()
	<-m.done
}

func (m *modelService) stats() Stats {
	return Stats{
		Requests: m.requests.Load(),
		Rows:     m.rowsDone.Load(),
		Batches:  m.batches.Load(),
		Rejected: m.rejected.Load(),
		Canceled: m.canceled.Load(),
		Swaps:    m.swaps.Load(),
	}
}

// submit admits r, enqueues it, and blocks until the dispatcher completes
// it or ctx ends. Admission is a row-count reservation released when the
// request completes, so MaxPending bounds queued + in-flight rows.
func (m *modelService) submit(ctx context.Context, r *request) error {
	if ctx == nil {
		ctx = context.Background()
	}
	r.ctx = ctx
	r.ready = make(chan struct{})
	if r.rows > 0 {
		for {
			p := m.pendingRows.Load()
			if p+int64(r.rows) > int64(m.cfg.MaxPending) {
				m.rejected.Add(1)
				return ErrOverloaded
			}
			if m.pendingRows.CompareAndSwap(p, p+int64(r.rows)) {
				break
			}
		}
	}
	m.mu.RLock()
	if m.draining {
		m.mu.RUnlock()
		m.pendingRows.Add(-int64(r.rows))
		return ErrDraining
	}
	select {
	case m.reqCh <- r:
		m.mu.RUnlock()
	default:
		m.mu.RUnlock()
		m.pendingRows.Add(-int64(r.rows))
		m.rejected.Add(1)
		return ErrOverloaded
	}
	select {
	case <-r.ready:
		return r.err
	case <-ctx.Done():
		// The dispatcher still owns r and will complete it (skipping
		// evaluation once it sees the dead context); only the wait is
		// abandoned. r's buffers are request-owned, so no race reaches
		// the caller.
		return ctx.Err()
	}
}

// finish completes r: results/err are final and the admission reservation
// is released before ready is closed, so a caller holding its answer never
// still sees its own rows pending.
func (m *modelService) finish(r *request, err error) {
	r.err = err
	if r.rows > 0 {
		m.pendingRows.Add(-int64(r.rows))
	}
	close(r.ready)
}

// run is the dispatcher loop: pull one request, fold in whatever else is
// queued, evaluate the group as fused batches, repeat. Exits when the queue
// is closed and drained.
func (m *modelService) run() {
	defer close(m.done)
	for {
		r, ok := <-m.reqCh
		if !ok {
			return
		}
		if r.kind == kindSwap {
			m.applySwap(r)
			continue
		}
		group, swap := m.collect(r)
		m.dispatch(group)
		if swap != nil {
			m.applySwap(swap)
		}
	}
}

// collect folds the requests queued behind first into one group, up to
// MaxBatch rows, and never waits for more. A group below MaxBatch first
// yields the processor once, so that callers already runnable enqueue
// before the drain (the package comment has why it is a yield and not a
// timer). A swap in the queue ends the group early and is returned to the
// caller — it must be applied AFTER the group is dispatched (queue-barrier
// semantics: no batch mixes parameter versions). A closed queue also ends
// the group; the outer loop then observes the closure and exits after the
// drain.
func (m *modelService) collect(first *request) (group []*request, swap *request) {
	group = append(m.groupBuf[:0], first)
	rows := first.rows
	if rows < m.cfg.MaxBatch {
		runtime.Gosched()
	}
loop:
	for rows < m.cfg.MaxBatch {
		select {
		case r, ok := <-m.reqCh:
			if !ok {
				break loop
			}
			if r.kind == kindSwap {
				swap = r
				break loop
			}
			group = append(group, r)
			rows += r.rows
		default:
			break loop
		}
	}
	m.groupBuf = group
	return group, swap
}

// dispatch evaluates one collected group: requests whose context already
// ended are completed unevaluated, the rest are partitioned by kind and
// each kind folded into one fused batch through the shared core dispatch.
func (m *modelService) dispatch(group []*request) {
	lp, en, sm := m.lpReqs[:0], m.enReqs[:0], m.smReqs[:0]
	for _, r := range group {
		if r.ctx.Err() != nil {
			m.canceled.Add(1)
			m.finish(r, r.ctx.Err())
			continue
		}
		switch r.kind {
		case kindLogPsi:
			lp = append(lp, r)
		case kindEnergy:
			en = append(en, r)
		case kindSample:
			sm = append(sm, r)
		}
	}
	m.lpReqs, m.enReqs, m.smReqs = lp, en, sm
	if len(lp) > 0 {
		m.evalConfigs(lp, false)
	}
	if len(en) > 0 {
		m.evalConfigs(en, true)
	}
	if len(sm) > 0 {
		m.evalSamples(sm)
	}
}

// grow* return reused dispatcher slabs of at least the requested size.
func (m *modelService) growBits(n int) []int {
	if cap(m.bitsBuf) < n {
		m.bitsBuf = make([]int, n)
	}
	return m.bitsBuf[:n]
}

func (m *modelService) growOut(n int) []float64 {
	if cap(m.outBuf) < n {
		m.outBuf = make([]float64, n)
	}
	return m.outBuf[:n]
}

func (m *modelService) growU(n int) []float64 {
	if cap(m.uBuf) < n {
		m.uBuf = make([]float64, n)
	}
	return m.uBuf[:n]
}

// evalConfigs fuses the requests' configuration rows into one batch and
// runs it through the shared core dispatch (LogPsi or LocalEnergies). The
// per-row values are bitwise identical to a direct single-request call by
// the nn.BatchEvaluator contract, so the fold is invisible in results.
func (m *modelService) evalConfigs(reqs []*request, energy bool) {
	total := 0
	for _, r := range reqs {
		total += r.rows
	}
	bits := m.growBits(total * m.sites)
	out := m.growOut(total)
	pos := 0
	for _, r := range reqs {
		copy(bits[pos*m.sites:], r.bits)
		pos += r.rows
	}
	b := &sampler.Batch{N: total, Sites: m.sites, Bits: bits}
	if energy {
		m.be.LocalEnergies(m.ham, b, m.cfg.Workers, out)
	} else {
		m.be.LogPsi(b, out)
	}
	m.batches.Add(1)
	m.rowsDone.Add(uint64(total))
	pos = 0
	for _, r := range reqs {
		copy(r.out, out[pos:pos+r.rows])
		pos += r.rows
		m.requests.Add(1)
		m.finish(r, nil)
	}
}

// evalSamples fuses the requests' pre-drawn uniforms into one batch and
// advances all samples together through the model's fused per-site pass.
// Each request's bits depend only on its own uniforms (per-sample
// arithmetic is row-local by the nn.BatchAncestralSampler contract), so
// the samples are bitwise identical to a direct per-request draw.
func (m *modelService) evalSamples(reqs []*request) {
	total := 0
	for _, r := range reqs {
		total += r.rows
	}
	bits := m.growBits(total * m.sites)
	for i := range bits {
		bits[i] = 0
	}
	u := m.growU(total * m.sites)
	pos := 0
	for _, r := range reqs {
		copy(u[pos*m.sites:], r.u)
		pos += r.rows
	}
	m.smp.Sample(sampler.Batch{N: total, Sites: m.sites, Bits: bits}, u, m.cfg.Workers)
	m.batches.Add(1)
	m.rowsDone.Add(uint64(total))
	pos = 0
	for _, r := range reqs {
		copy(r.outBits, bits[pos*m.sites:(pos+r.rows)*m.sites])
		pos += r.rows
		m.requests.Add(1)
		m.finish(r, nil)
	}
}

// applySwap moves the live model onto the new checkpoint's parameters
// between batches. Evaluator caches are version-counted, so the next
// dispatch rebuilds them against the new parameters; Prewarm does the
// rebuild here, on the dispatcher, instead of inside the next batch.
func (m *modelService) applySwap(r *request) {
	if r.ctx.Err() != nil {
		m.canceled.Add(1)
		m.finish(r, r.ctx.Err())
		return
	}
	err := nn.HotSwapParams(m.wf, r.swapTo)
	if err == nil {
		nn.Prewarm(m.wf)
		m.swaps.Add(1)
	}
	m.finish(r, err)
}
