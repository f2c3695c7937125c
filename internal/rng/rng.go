// Package rng provides a fast, splittable pseudo-random number generator for
// deterministic parallel simulation.
//
// The generator is xoshiro256** seeded through SplitMix64. Splitting derives a
// statistically independent child stream from a parent, which lets every
// device, Markov chain and worker own a private generator while the whole run
// stays reproducible from a single root seed.
package rng

import "math"

// Rand is a xoshiro256** generator. It is not safe for concurrent use; split
// one child per goroutine instead of sharing.
type Rand struct {
	s0, s1, s2, s3 uint64
	// cached second normal variate from Box-Muller
	normCached bool
	normVal    float64
}

// splitMix64 advances the state and returns the next SplitMix64 output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via SplitMix64, following the
// xoshiro authors' recommendation for filling the initial state.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	r.s0 = splitMix64(&st)
	r.s1 = splitMix64(&st)
	r.s2 = splitMix64(&st)
	r.s3 = splitMix64(&st)
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a child generator whose stream is independent of the parent's
// subsequent outputs. The child is seeded by hashing fresh parent output
// through SplitMix64, so parent and child may be used concurrently afterwards.
func (r *Rand) Split() *Rand {
	seed := r.Uint64()
	return New(seed ^ 0xa3ec647659359acd)
}

// SplitN returns n independent child generators.
func (r *Rand) SplitN(n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Float64 returns a uniform variate in [0,1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform variate in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }

// Bit returns 0 or 1 with equal probability.
func (r *Rand) Bit() int { return int(r.Uint64() >> 63) }

// Norm returns a standard normal variate via Box-Muller with caching.
func (r *Rand) Norm() float64 {
	if r.normCached {
		r.normCached = false
		return r.normVal
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.normVal = v * f
	r.normCached = true
	return u * f
}

// Perm fills dst with a uniform random permutation of 0..len(dst)-1.
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// FillBits fills dst with independent uniform bits (0 or 1).
func (r *Rand) FillBits(dst []int) {
	for i := range dst {
		dst[i] = r.Bit()
	}
}

// FillUniform fills dst with independent uniform variates in [lo,hi).
func (r *Rand) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = r.Uniform(lo, hi)
	}
}

// FillNorm fills dst with independent N(0, sigma^2) variates.
func (r *Rand) FillNorm(dst []float64, sigma float64) {
	for i := range dst {
		dst[i] = sigma * r.Norm()
	}
}

// State is a snapshot of a generator's exact stream position: the four
// xoshiro256** state words plus the Box-Muller cache. Capturing and later
// restoring it replays the stream bit-identically, which is what lets a
// recovered replica resume a failed rank's random-number stream at the
// precise draw where a checkpoint was taken.
type State struct {
	S [4]uint64
	// Box-Muller cache: whether a second normal variate is pending, and its
	// value. Without these, a restore placed between the two halves of a
	// Box-Muller pair would desynchronize every subsequent normal draw.
	NormCached bool
	NormVal    float64
}

// State captures the generator's current stream position.
func (r *Rand) State() State {
	return State{
		S:          [4]uint64{r.s0, r.s1, r.s2, r.s3},
		NormCached: r.normCached,
		NormVal:    r.normVal,
	}
}

// SetState restores a previously captured stream position; subsequent draws
// are bit-identical to those after the capture.
func (r *Rand) SetState(s State) {
	r.s0, r.s1, r.s2, r.s3 = s.S[0], s.S[1], s.S[2], s.S[3]
	r.normCached = s.NormCached
	r.normVal = s.NormVal
}
