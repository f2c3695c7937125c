//go:build !purego

package tensor

import "math"

// The AVX2 kernels of simd_amd64.s. Each requires len(d) == len(s) (and
// len(r0..r3) >= len(d)), which every dispatcher in simd.go guarantees.

//go:noescape
func addAVX2(d, s []float64)

//go:noescape
func axpyAVX2(d, s []float64, a float64)

//go:noescape
func axpy4AVX2(d, r0, r1, r2, r3 []float64, w0, w1, w2, w3 float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// simdMinLen is the shortest row the dispatchers hand to the AVX2
// kernels, fixed once at package init: simdCrossover on a CPU (and OS)
// that runs AVX2, and never otherwise.
var simdMinLen = func() int {
	if hasAVX2() {
		return simdCrossover
	}
	return math.MaxInt
}()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches (OSXSAVE set and XCR0 enabling
// both the SSE and the AVX state).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
