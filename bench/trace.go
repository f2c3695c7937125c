package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Op is the step or request
// the span belongs to (all spans of one step share it); Parent is the ID of
// the span that caused it, 0 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one lock-free buffer per goroutine, and
// writes them out when the run ends. A nil *spanBuf records nothing, so the
// same driver code runs traced and untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span list. IDs are (buffer index+1) in the top
// bits and the position in the low bits, so they are unique without
// synchronisation.
type spanBuf struct {
	t     *tracer
	base  int64
	spans []span
}

// buf registers and returns a span buffer for the calling goroutine. A nil
// tracer yields a nil buffer.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, base: int64(len(t.bufs)+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its ID (0 on a nil buffer).
func (b *spanBuf) begin(name string, op, parent int64) int64 {
	if b == nil {
		return 0
	}
	id := b.base + int64(len(b.spans))
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent, Op: op,
		Start: time.Since(b.t.epoch).Nanoseconds()})
	return id
}

// end closes the span begin returned.
func (b *spanBuf) end(id int64) {
	if b == nil {
		return
	}
	b.spans[id-b.base].End = time.Since(b.t.epoch).Nanoseconds()
}

// all returns every recorded span, buffers concatenated.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfMS returns, for every span of the given name, its self time: the
// span's duration minus the part its child spans cover (children of one
// parent never overlap here: each parent's children run sequentially on the
// parent's goroutine).
func selfMS(spans []span, name string) []float64 {
	child := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[s.ID])/1e6)
		}
	}
	return out
}

// perOpMS sums the durations of all spans of one name within each op and
// returns the per-op totals (a step has eight gradient slabs; their spans
// add up to that step's slab time).
func perOpMS(spans []span, name string) []float64 {
	sum := map[int64]int64{}
	var order []int64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := sum[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sum[s.Op] += s.End - s.Start
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = float64(sum[op]) / 1e6
	}
	return out
}

// maxSpansWritten bounds the span file: serve_fold_single records a few
// hundred thousand request spans per run, and the first ones describe the
// run as well as all of them. Metrics always use every span.
const maxSpansWritten = 20000

// writeSpans writes up to maxSpansWritten spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
