// Blocked, worker-parallel matrix-product kernels for the batched
// wavefunction evaluation path. The kernels block over rows and columns of
// the destination ONLY — every output element is accumulated over the
// contraction index k in the same fixed ascending order the scalar
// matrix-vector kernels use — so the results are bitwise identical to the
// per-sample path and invariant to the worker count and block sizes. That
// exactness is what lets the batched trainer keep package dist's replica
// bit-identity checks meaningful.
package tensor

import "github.com/vqmc-scale/parvqmc/internal/parallel"

// Destination tile sizes for the blocked products. Blocking changes only
// WHICH element is computed when, never the accumulation order within an
// element, so the values do not depend on these constants.
const (
	mmRowBlock = 32
	mmColBlock = 64
)

// accumRow computes drow += av * brow through vecAxpy: the AVX2 kernel from
// the crossover length up, the Go loop below it, the av == 1 multiply
// elided (1.0*x == x bitwise, and the batched layer-1 inputs are exact 0/1
// floats, so the common case saves the multiply). Every element receives
// exactly one rounded product and one rounded addition per call, so
// accumulation order is untouched.
func accumRow(drow, brow []float64, av float64) {
	if av == 1 {
		vecAdd(drow, brow)
		return
	}
	vecAxpy(drow, brow, av)
}

// MatMul computes dst = a*b (dst: M x N, a: M x K, b: K x N), blocked over
// destination rows and parallelized across up to workers goroutines
// (<= 0 means GOMAXPROCS). Each destination element is accumulated in
// ascending k order, exactly like the serial Mul, so the output is bitwise
// identical to Mul for finite inputs and independent of the worker count.
// dst must not alias a or b.
func MatMul(dst, a, b *Matrix, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul dimension mismatch")
	}
	nrb := (dst.Rows + mmRowBlock - 1) / mmRowBlock
	parallel.For(nrb, workers, func(lo, hi int) {
		for rb := lo; rb < hi; rb++ {
			i0, i1 := rb*mmRowBlock, (rb+1)*mmRowBlock
			if i1 > dst.Rows {
				i1 = dst.Rows
			}
			for i := i0; i < i1; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
				for j := range drow {
					drow[j] = 0
				}
				for k, av := range arow {
					if av == 0 {
						continue
					}
					accumRow(drow, b.Data[k*b.Cols:(k+1)*b.Cols], av)
				}
			}
		}
	})
}

// MatMulReLU computes dst = max(0, a)*b without materializing the
// activated copy of a: non-positive a elements contribute relu(av) = +0
// terms, whose additions are exact no-ops (an accumulator that starts at
// +0 and only ever adds finite values can never become -0, and x + (+/-0)
// == x otherwise), so skipping them is bitwise identical to applying ReLU
// and then MatMul. This is the fused hidden-activation + output-layer
// kernel of the batched wavefunction forward. dst must not alias a or b.
func MatMulReLU(dst, a, b *Matrix, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulReLU dimension mismatch")
	}
	nrb := (dst.Rows + mmRowBlock - 1) / mmRowBlock
	parallel.For(nrb, workers, func(lo, hi int) {
		for rb := lo; rb < hi; rb++ {
			i0, i1 := rb*mmRowBlock, (rb+1)*mmRowBlock
			if i1 > dst.Rows {
				i1 = dst.Rows
			}
			for i := i0; i < i1; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
				for j := range drow {
					drow[j] = 0
				}
				for k, av := range arow {
					if av <= 0 {
						continue
					}
					accumRow(drow, b.Data[k*b.Cols:(k+1)*b.Cols], av)
				}
			}
		}
	})
}

// MatMulCols computes dst[:, j0:j1) = (a*b)[:, j0:j1), the column-range
// restriction of MatMul: destination columns outside [j0, j1) are left
// untouched (not zeroed, not read). It exists purely to skip work the caller
// can prove unnecessary (the tail-only flip evaluation, where the
// autoregressive mask guarantees the head columns are already known). dst
// must not alias a or b.
//
// It is a 4-row register-blocked micro-kernel: narrow column tails cannot
// amortize per-(row, k) loop overhead the way the full-width kernels do, so
// four destination rows share each b-row slice.
//
// Bitwise contract: every computed element is accumulated over k in
// ascending order, receiving exactly one addition per k. Instead of
// skipping k for a zero a-element, the micro-kernel multiplies by it: the
// skipped terms become av*bv == +/-0 additions, which are exact no-ops — an
// accumulator that starts at +0 and only ever adds finite values can never
// become -0, and x + (+/-0) == x otherwise. This is the same argument that
// makes MatMulReLU's skip exact, run in reverse; the av == 1 multiply
// elision is dropped for the same reason (1*x == x bitwise). The written
// columns are therefore bitwise identical to a full MatMul.
func MatMulCols(dst, a, b *Matrix, j0, j1, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: column-range matmul dimension mismatch")
	}
	if j0 < 0 || j1 > dst.Cols || j0 > j1 {
		panic("tensor: column-range matmul bounds out of range")
	}
	if j0 == j1 {
		return
	}
	w := j1 - j0
	nrb := (dst.Rows + mmRowBlock - 1) / mmRowBlock
	parallel.For(nrb, workers, func(lo, hi int) {
		for rb := lo; rb < hi; rb++ {
			i0, i1 := rb*mmRowBlock, (rb+1)*mmRowBlock
			if i1 > dst.Rows {
				i1 = dst.Rows
			}
			i := i0
			for ; i+4 <= i1; i += 4 {
				a0 := a.Data[(i+0)*a.Cols : (i+1)*a.Cols]
				a1 := a.Data[(i+1)*a.Cols : (i+2)*a.Cols]
				a2 := a.Data[(i+2)*a.Cols : (i+3)*a.Cols]
				a3 := a.Data[(i+3)*a.Cols : (i+4)*a.Cols]
				d0 := dst.Data[(i+0)*dst.Cols+j0 : (i+0)*dst.Cols+j1]
				d1 := dst.Data[(i+1)*dst.Cols+j0 : (i+1)*dst.Cols+j1]
				d2 := dst.Data[(i+2)*dst.Cols+j0 : (i+2)*dst.Cols+j1]
				d3 := dst.Data[(i+3)*dst.Cols+j0 : (i+3)*dst.Cols+j1]
				for j := 0; j < w; j++ {
					d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
				}
				for k := 0; k < a.Cols; k++ {
					v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
					if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
						continue
					}
					brow := b.Data[k*b.Cols+j0 : k*b.Cols+j0+w]
					for j, bv := range brow {
						d0[j] += float64(v0 * bv)
						d1[j] += float64(v1 * bv)
						d2[j] += float64(v2 * bv)
						d3[j] += float64(v3 * bv)
					}
				}
			}
			for ; i < i1; i++ {
				arow := a.Data[i*a.Cols : (i+1)*a.Cols]
				drow := dst.Data[i*dst.Cols+j0 : i*dst.Cols+j1]
				for j := range drow {
					drow[j] = 0
				}
				for k, av := range arow {
					if av == 0 {
						continue
					}
					brow := b.Data[k*b.Cols+j0 : k*b.Cols+j0+w]
					for j, bv := range brow {
						drow[j] += float64(av * bv)
					}
				}
			}
		}
	})
}

// MatMulT computes dst = a*b^T (dst: M x N, a: M x K, b: N x K) without
// materializing the transpose: element (i, j) is the dot product of row i
// of a with row j of b, accumulated in ascending k order — the identical
// floating-point sequence MulVec produces for one sample.
// It is the untransposed-operand form of the batched contract for callers
// that hold weights in their natural row-major layout; the MADE hot path
// instead pre-transposes its masked-weight cache and drives MatMul/
// MatMulReLU, whose per-column accumulators pipeline better than this
// kernel's single dot-product chain. Work is blocked over destination
// row/column tiles so the b tile stays cache-resident while a streams
// through, and parallelized over row blocks across up to workers
// goroutines (<= 0 means GOMAXPROCS). dst must not alias a or b.
func MatMulT(dst, a, b *Matrix, workers int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulT dimension mismatch")
	}
	k := a.Cols
	nrb := (dst.Rows + mmRowBlock - 1) / mmRowBlock
	parallel.For(nrb, workers, func(lo, hi int) {
		for rb := lo; rb < hi; rb++ {
			i0, i1 := rb*mmRowBlock, (rb+1)*mmRowBlock
			if i1 > dst.Rows {
				i1 = dst.Rows
			}
			for j0 := 0; j0 < dst.Cols; j0 += mmColBlock {
				j1 := j0 + mmColBlock
				if j1 > dst.Cols {
					j1 = dst.Cols
				}
				for i := i0; i < i1; i++ {
					arow := a.Data[i*k : (i+1)*k]
					drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
					for j := j0; j < j1; j++ {
						brow := b.Data[j*k : (j+1)*k]
						var s float64
						for l, av := range arow {
							s += float64(av * brow[l])
						}
						drow[j] = s
					}
				}
			}
		}
	})
}

// AddRowBias adds bias to every row of m (bias length m.Cols). Each element
// sees exactly one addition, performed after the row's products are fully
// accumulated — the same "dot first, bias second" order the scalar forward
// uses. It is a plain loop: O(cols)
// per row never pays for a dispatch, and its callers, nn's batch evaluators,
// are single-threaded.
func AddRowBias(m *Matrix, bias Vector) {
	AddRowBiasCols(m, bias, 0, m.Cols)
}

// AddRowBiasCols adds bias[j0:j1) to columns [j0, j1) of every row of m,
// the column-range restriction of AddRowBias (bias still has length m.Cols;
// columns outside the range are untouched). Same one-addition-per-element,
// dot-first-bias-second contract.
func AddRowBiasCols(m *Matrix, bias Vector, j0, j1 int) {
	if len(bias) != m.Cols {
		panic("tensor: AddRowBiasCols length mismatch")
	}
	if j0 < 0 || j1 > m.Cols || j0 > j1 {
		panic("tensor: AddRowBiasCols column range out of bounds")
	}
	sub := bias[j0:j1]
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols+j0 : i*m.Cols+j1]
		for j, bv := range sub {
			row[j] += bv
		}
	}
}
