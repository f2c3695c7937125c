package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/core"
	"github.com/vqmc-scale/parvqmc/internal/rng"
	"github.com/vqmc-scale/parvqmc/internal/sampler"
	"github.com/vqmc-scale/parvqmc/internal/serve"
)

const modelName = "m"

// request is one generated request with the answer it must get: want is the
// direct core.BatchedEval evaluation of exactly these rows by a single
// caller, and a served answer must equal it with ==.
type request struct {
	rows [][]int
	body []byte // the JSON the HTTP endpoint takes
	want []float64
}

// poolSize is how many distinct requests a run cycles through.
const poolSize = 256

// newPool generates the run's requests (rowsPer configurations each) from
// the seed and evaluates their reference answers.
func (p *problem) newPool(rowsPer int) ([]request, error) {
	r := rng.New(p.stream(streamRequests))
	ref := core.NewBatchedEval(p.newModel(), core.EvalAuto, 1)
	pool := make([]request, poolSize)
	for i := range pool {
		b := p.randomBatch(rowsPer, r)
		q := request{rows: make([][]int, rowsPer), want: make([]float64, rowsPer)}
		for k := range q.rows {
			q.rows[k] = b.Row(k)
		}
		ref.LocalEnergies(p.ham, b, 1, q.want)
		body, err := json.Marshal(map[string][][]int{"configs": q.rows})
		if err != nil {
			return nil, err
		}
		q.body = body
		pool[i] = q
	}
	return pool, nil
}

// verify compares a served answer with the request's reference, bitwise.
func (q *request) verify(got []float64) error {
	if len(got) != len(q.want) {
		return fmt.Errorf("served %d values, want %d", len(got), len(q.want))
	}
	for k := range got {
		if got[k] != q.want[k] {
			return fmt.Errorf("row %d: served %v != direct %v", k, got[k], q.want[k])
		}
	}
	return nil
}

// served is a running server: the in-process API and, when http is set, a
// real loopback net/http server in front of serve.NewHandler.
type served struct {
	srv    *serve.Server
	http   *http.Server
	client *http.Client
	url    string
	done   chan error // http.Serve's return
}

// serveUp registers the model under the default serve.Config and, for the
// HTTP workload, starts listening on a loopback port with a client capped
// at conns keep-alive connections.
func (p *problem) serveUp(withHTTP bool, conns int) (*served, error) {
	s := &served{srv: serve.NewServer(serve.ServerConfig{})}
	if err := s.srv.Register(modelName, serve.ModelSpec{WF: p.newModel(), Ham: p.ham}); err != nil {
		return nil, err
	}
	if !withHTTP {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.http = &http.Server{Handler: serve.NewHandler(s.srv)}
	s.done = make(chan error, 1)
	go func() { s.done <- s.http.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/v1/models/" + modelName + "/energy"
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	return s, nil
}

// down stops the HTTP server, waits for its goroutine, and drains the
// model server.
func (s *served) down() error {
	var err error
	if s.http != nil {
		s.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.http.Shutdown(ctx)
		cancel()
		if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
	}
	s.srv.Close()
	return err
}

// local serves q in process and verifies the answer.
func (s *served) local(q *request) error {
	got, err := s.srv.LocalEnergy(context.Background(), modelName, q.rows)
	if err != nil {
		return err
	}
	return q.verify(got)
}

// post serves q through the socket and verifies the answer.
func (s *served) post(q *request) error {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out struct {
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	return q.verify(out.Values)
}

// loopRun is what a closed loop measured.
type loopRun struct {
	startMS []float64 // when each request was sent, from the start of the loop
	latMS   []float64
	wall    time.Duration
	errs    []error
}

// closedLoop runs `clients` callers, each sending its next request only
// after the previous reply: callers that wait for answers. Every caller
// stops at the deadline, or after its share of count requests when count is
// positive. Request i of caller c is pool[(c*stride+i) % len(pool)].
func closedLoop(clients, count int, dur time.Duration, pool []request, tr *tracer, do func(q *request) error) loopRun {
	starts, lats := make([][]float64, clients), make([][]float64, clients)
	errs := make([][]error, clients)
	stride := len(pool)/clients + 1
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sb := tr.buf()
			for i := 0; ; i++ {
				if count > 0 {
					if i >= (count+clients-1)/clients {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				q := &pool[(c*stride+i)%len(pool)]
				op := int64(c)<<32 | int64(i+1)
				t0 := time.Now()
				s := sb.begin("serve.request", op, 0)
				err := do(q)
				sb.end(s)
				starts[c], lats[c] = append(starts[c], ms(t0.Sub(start))), append(lats[c], ms(time.Since(t0)))
				if err != nil {
					errs[c] = append(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	run := loopRun{wall: time.Since(start)}
	for c := range lats {
		run.startMS, run.latMS = append(run.startMS, starts[c]...), append(run.latMS, lats[c]...)
		run.errs = append(run.errs, errs[c]...)
	}
	return run
}

// countRequests adds a loop's requests to attempted and its errors to
// failed.
func (res *result) countRequests(run loopRun) {
	res.Attempted += len(run.latMS)
	for _, err := range run.errs {
		res.fail("request: %v", err)
	}
}

// newWorkloadPool generates the requests the workload sends: p.batch rows
// each over HTTP, one row each in process.
func (p *problem) newWorkloadPool() ([]request, error) {
	if p.drive == driveHTTP {
		return p.newPool(p.batch)
	}
	return p.newPool(1)
}

// send returns the workload's way of serving one request through s.
func (p *problem) send(s *served) func(q *request) error {
	if p.drive == driveHTTP {
		return s.post
	}
	return s.local
}

// measureServe drives one instance of serve_http_batch (64-row requests
// over two keep-alive connections) or serve_fold_single (64 in-process
// callers, one row each) untraced.
func measureServe(p *problem, cfg runCfg, res *result, window time.Duration) (measured, error) {
	pool, err := p.newWorkloadPool()
	if err != nil {
		return measured{}, err
	}
	t0 := time.Now()
	s, err := p.serveUp(p.drive == driveHTTP, p.clients)
	if err != nil {
		return measured{}, err
	}
	res.countRequests(closedLoop(p.clients, p.warm, 0, pool, nil, p.send(s)))
	m := measured{setupS: time.Since(t0).Seconds()}
	var run loopRun
	if window > 0 {
		run = closedLoop(p.clients, 0, window, pool, nil, p.send(s))
	}
	if err := s.down(); err != nil {
		return m, err
	}
	res.countRequests(run)
	m.startMS, m.opMS, m.wall = run.startMS, run.latMS, run.wall
	return m, nil
}

// traceServe is the traced run of a serve workload: the serving part with a
// live server, then the layer probes with the server gone.
func traceServe(p *problem, cfg runCfg, res *result) error {
	if err := traceServing(p, cfg, res); err != nil {
		return err
	}
	probeLayers(p, cfg, res)
	qb, out := p.randomBatch(p.batch, rng.New(p.stream(streamProbe))), make([]float64, p.batch)
	res.add("parallel.w2_over_w1", p.workerRatio(cfg, func(w int) func() {
		be := core.NewBatchedEval(p.newModel(), core.EvalAuto, w)
		return func() { be.LocalEnergies(p.ham, qb, w, out) }
	}), "ratio")
	res.notEntered("core.", "optimizer.sr_precond_ms", "optimizer.cg_iters_per_step",
		"comm.bytes", "comm.msgs", "comm.collectives", "dist.")
	return nil
}

// traceServing runs, against one server: an untraced stretch (the reference
// for the overhead and the allocation rate), the same loop with a span per
// request, the loop once more beside a goroutine that hot-swaps the model,
// one request timed three ways by a single caller, and the open-loop
// diagnostics.
func traceServing(p *problem, cfg runCfg, res *result) (err error) {
	pool, err := p.newWorkloadPool()
	if err != nil {
		return err
	}
	s, err := p.serveUp(true, two())
	if err != nil {
		return err
	}
	defer func() {
		if derr := s.down(); err == nil {
			err = derr
		}
	}()
	do := p.send(s)
	res.countRequests(closedLoop(p.clients, p.warm, 0, pool, nil, do))

	// Untraced and traced stretches alternate, so both see the same noise.
	st0, err := s.srv.ModelStats(modelName)
	if err != nil {
		return err
	}
	tr := newTracer()
	var (
		ref, trc loopRun
		m0, m1   runtime.MemStats
	)
	for i := 0; i < 2; i++ {
		runtime.ReadMemStats(&m0)
		a := closedLoop(p.clients, 0, cfg.window(0.1), pool, nil, do)
		runtime.ReadMemStats(&m1)
		b := closedLoop(p.clients, 0, cfg.window(0.1), pool, tr, do)
		res.countRequests(a)
		res.countRequests(b)
		ref.latMS, trc.latMS = append(ref.latMS, a.latMS...), append(trc.latMS, b.latMS...)
		if i == 1 {
			res.add("runtime.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(a.latMS)), "KiB")
		}
	}
	st1, err := s.srv.ModelStats(modelName)
	if err != nil {
		return err
	}
	batches := float64(st1.Batches - st0.Batches)
	res.add("serve.batches", batches, "count")
	res.add("serve.rows_per_batch", float64(st1.Rows-st0.Rows)/batches, "count")
	lat := sorted(trc.latMS)
	res.addDist("serve.p50_ms", percentile(lat, 0.50), "ms", lat)
	res.addDist("serve.p95_ms", percentile(lat, 0.95), "ms", lat)
	res.addDist("serve.p99_ms", percentile(lat, 0.99), "ms", lat)
	res.add("serve.body_bytes", float64(len(pool[0].body)), "B")
	res.add("trace.overhead", percentile(lat, 0.5)/percentile(sorted(ref.latMS), 0.5), "ratio")
	if err := cfg.writeSpans(res, tr.all()); err != nil {
		return err
	}

	// The write beside the reads: a hot swap onto identical parameters every
	// few milliseconds while the load runs. Swap is a queue barrier, so
	// served values must not change and every answer is still verified.
	type swaps struct {
		ms  []float64
		err error
	}
	stop, swapped := make(chan struct{}), make(chan swaps, 1)
	go func() {
		var sw swaps
		same := p.newModel()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			t0 := time.Now()
			if err := s.srv.Swap(context.Background(), modelName, same); err != nil {
				sw.err = err
			}
			sw.ms = append(sw.ms, ms(time.Since(t0)))
			select {
			case <-stop:
				swapped <- sw
				return
			case <-tick.C:
			}
		}
	}()
	res.countRequests(closedLoop(p.clients, 0, cfg.window(0.05), pool, nil, do))
	close(stop)
	sw := <-swapped
	res.check(sw.err == nil, "hot swap under load: %v", sw.err)
	res.add("serve.swap_ms", median(sw.ms), "ms")

	// One p.batch-row request timed three ways by a single caller: direct
	// evaluation, through the coalescer, through the socket. Each layer's
	// self time is the difference to the layer below.
	big, err := p.newPool(p.batch)
	if err != nil {
		return err
	}
	q := &big[0]
	direct := core.NewBatchedEval(p.newModel(), core.EvalAuto, p.width())
	qb := &sampler.Batch{N: p.batch, Sites: p.n}
	for _, row := range q.rows {
		qb.Bits = append(qb.Bits, row...)
	}
	out := make([]float64, p.batch)
	single := func(fn func() error) float64 {
		ns, _ := timeNs(cfg.window(0.03), func() {
			if err := fn(); err != nil {
				res.fail("single caller: %v", err)
			}
		})
		return ns / 1e6
	}
	directMS := single(func() error { direct.LocalEnergies(p.ham, qb, p.width(), out); return q.verify(out) })
	inprocMS := single(func() error { return s.local(q) })
	httpMS := single(func() error { return s.post(q) })
	res.add("serve.direct_eval_ms", directMS, "ms")
	res.add("serve.inproc_ms", inprocMS, "ms")
	res.add("serve.http_ms", httpMS, "ms")
	res.add("serve.coalescer_self_ms", inprocMS-directMS, "ms")
	res.add("serve.http_self_ms", httpMS-inprocMS, "ms")
	res.add("serve.sample_ms", single(func() error {
		_, err := s.srv.Sample(context.Background(), modelName, p.batch, p.stream(streamProbe))
		return err
	}), "ms")
	// What serving spends in core is the evaluation itself; it never
	// samples for training, forms a gradient or updates parameters.
	res.add("core.energy_ms", directMS, "ms")
	var answers []float64
	for i := range pool {
		answers = append(answers, pool[i].want...)
	}
	res.add("core.curve_hash", curveHash(answers), "hash")

	// Open loop, in process, one row per request, timed from the due time:
	// independent users who do not wait for each other. Tails here do not
	// repeat on a shared box, so these are diagnostics and nothing is gated.
	rows := pool
	if p.drive == driveHTTP {
		if rows, err = p.newPool(1); err != nil {
			return err
		}
	}
	var late []float64
	for _, r := range []struct {
		tag  string
		rate float64
	}{{"r2k", 2000}, {"r16k", 16000}} {
		o := openLoop(r.rate, cfg.window(0.04), rows, s.local)
		res.Attempted += len(o.latMS) + o.refused + len(o.errs)
		for _, err := range o.errs {
			res.fail("open loop %s: %v", r.tag, err)
		}
		asc := sorted(o.latMS)
		res.addDist("serve.open_p50_ms."+r.tag, percentile(asc, 0.5), "ms", asc)
		res.addDist("serve.open_p95_ms."+r.tag, percentile(asc, 0.95), "ms", asc)
		late = append(late, o.lateMS...)
	}
	res.add("serve.open_late_p99_ms", percentile(sorted(late), 0.99), "ms")
	st2, err := s.srv.ModelStats(modelName)
	if err != nil {
		return err
	}
	res.add("serve.rejected", float64(st2.Rejected), "count")
	res.add("serve.canceled", float64(st2.Canceled), "count")
	return nil
}

// openRun is what an open loop measured.
type openRun struct {
	latMS   []float64 // from the due time to the verified answer
	lateMS  []float64 // how late the generator sent each request
	refused int       // shed by admission control: load the server declined
	errs    []error
}

// openLoop sends requests on a fixed schedule whatever the server does, each
// on its own goroutine, and times every one from when it was due.
func openLoop(rate float64, dur time.Duration, pool []request, do func(q *request) error) openRun {
	var (
		mu  sync.Mutex // guards run's latMS, refused and errs
		run openRun
		wg  sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= dur {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		run.lateMS = append(run.lateMS, ms(time.Since(due)))
		wg.Add(1)
		go func(q *request) {
			defer wg.Done()
			err := do(q)
			lat := ms(time.Since(due))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				run.refused++
			case err != nil:
				run.errs = append(run.errs, err)
			default:
				run.latMS = append(run.latMS, lat)
			}
		}(&pool[i%len(pool)])
	}
	wg.Wait()
	return run
}
