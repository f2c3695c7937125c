//go:build !purego

package nn

// The four-lane kernels of lanes_amd64.s: two for MADE's lockstep
// ancestral sampler (made_sample.go), where len(a) must be 4*len(w), and
// the weighted backward's dW2 update (made_batch.go), where len(d) must be
// len(dz2).

//go:noescape
func cond4AVX2(z *[4]float64, w, a []float64)

//go:noescape
func add4MaskedAVX2(a, w []float64, mask *[4]uint64)

//go:noescape
func addW2AVX2(d, dz2 []float64, ak, w float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// haveLanes reports, once at package init, whether the CPU implements AVX2
// and the OS saves the YMM registers (the same probe as internal/tensor's,
// which cannot share an unexported function with this package).
var haveLanes = func() bool {
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
}()
