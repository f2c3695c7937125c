package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/vqmc-scale/parvqmc/internal/comm"
	"github.com/vqmc-scale/parvqmc/internal/nn"
	"github.com/vqmc-scale/parvqmc/internal/optimizer"
)

// pipeLink is the simulated interconnect for the pipelined-CG comparison: a
// latency-dominated link, the regime the paper's timing breakdown puts the
// per-iteration SR collective in once the network saturates.
var pipeLink = comm.Link{Latency: 100 * time.Microsecond}

// pipeCG compares the classic and pipelined distributed SR Fisher solves on
// a simulated-latency interconnect. Classic CG blocks on one ring
// all-reduce per iteration, so solve wall-time carries iters x ring
// latency; Gropp's pipelined variant issues the same reductions
// non-blocking and overlaps them with the recurrence updates, moving every
// per-iteration collective off the blocking path (the "blocking/step"
// column drops to the two pre-solve reductions) at the cost of one extra
// operator application per solve. The table reports measured wall time per
// step, the blocking vs non-blocking collective split, ring traffic, and
// the converged energy (which must agree between solvers — same Krylov
// process).
func pipeCG(p Preset, out io.Writer, csvDir string) error {
	dims := realDims(p)
	if len(dims) > 1 {
		dims = dims[:1] // one runnable dimension carries the comparison
	}
	ls := []int{}
	for _, l := range p.GPUCounts {
		if l > 1 {
			ls = append(ls, l)
		}
	}
	if len(ls) > 2 {
		ls = ls[:2]
	}
	iters := p.Iters / 10
	if iters < 6 {
		iters = 6
	}

	tbl := newTable(
		fmt.Sprintf("Pipelined CG: blocking collectives off the critical path (link latency %v, mbs=%d, preset %s)",
			pipeLink.Latency, p.MBS, p.Name),
		"n", "L", "solver", "ms/step", "blocking/step", "async/step", "MB/step", "energy")
	for _, n := range dims {
		for _, L := range ls {
			for _, solver := range []optimizer.SolverKind{optimizer.SolverCG, optimizer.SolverPipelined} {
				tr, err := buildDistTrainer(n, hiddenMADE(n), L, p.MBS, 2, 1e-3, solver, uint64(90+L))
				if err != nil {
					return err
				}
				tr.SetLink(pipeLink)
				start := time.Now()
				hist, err := tr.Train(iters, nil)
				if err != nil {
					return err
				}
				elapsed := time.Since(start)
				sync, async := tr.Collectives()
				bytes, _ := tr.Traffic()
				last := hist[len(hist)-1]
				tbl.AddRow(n, L, solver.String(),
					fmt.Sprintf("%.2f", elapsed.Seconds()*1e3/float64(iters)),
					fmt.Sprintf("%.1f", float64(sync)/float64(iters)),
					fmt.Sprintf("%.1f", float64(async)/float64(iters)),
					fmt.Sprintf("%.3f", float64(bytes)/float64(iters)/1e6),
					fmt.Sprintf("%.4f", last.Energy))
			}
		}
	}
	if err := emit(out, csvDir, "pipecg.csv", tbl); err != nil {
		return err
	}

	// Overlap timing model: what one Fisher collective costs on the link
	// (the latency classic CG pays per iteration) vs the recurrence work
	// the pipelined solve runs inside the window (~4d flops: the residual
	// norm and the direction update), on the calibrated V100. The window
	// only covers the ring time at large parameter counts — which is
	// exactly the regime whose latency wall this solver attacks; at
	// laptop-test dimensions the measured win is the blocking count, not
	// wall clock.
	dev := v100()
	model := newTable(
		"Modeled per-iteration ring latency vs the recurrence window that hides it (V100, payload d+1 doubles)",
		"n", "params d", "L=4 ring", "L=16 ring", "overlap window", "hidden @ L=16")
	for _, n := range p.BigDims {
		d := madeParams(n, nn.HiddenMADE(n))
		payload := float64(d+1) * 8
		window := time.Duration(4 * float64(d) / dev.Throughput * float64(time.Second))
		ring16 := comm.RingAllReduceTime(payload, 16, pipeLink)
		hidden := 1.0
		if ring16 > 0 && window < ring16 {
			hidden = float64(window) / float64(ring16)
		}
		model.AddRow(n, d,
			comm.RingAllReduceTime(payload, 4, pipeLink).String(),
			ring16.String(), window.String(), fmt.Sprintf("%.0f%%", 100*hidden))
	}
	return emit(out, csvDir, "pipecg_model.csv", model)
}
