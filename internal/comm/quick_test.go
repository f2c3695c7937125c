package comm

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// TestAllReduceProperty drives the ring all-reduce with randomized group
// sizes, vector lengths and payloads via testing/quick: the result must
// always equal the serial sum on every rank.
func TestAllReduceProperty(t *testing.T) {
	f := func(pRaw, nRaw uint8, seed uint64) bool {
		p := 1 + int(pRaw)%8
		n := 1 + int(nRaw)%257
		r := rng.New(seed)
		data := make([][]float64, p)
		want := make([]float64, n)
		for rank := range data {
			data[rank] = make([]float64, n)
			r.FillUniform(data[rank], -10, 10)
			for i, v := range data[rank] {
				want[i] += v
			}
		}
		g := NewGroup(p)
		runCollective(g, func(c *Comm) { c.AllReduceSum(data[c.Rank()]) })
		for rank := 0; rank < p; rank++ {
			for i := range want {
				if math.Abs(data[rank][i]-want[i]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPackedAllReduceProperty drives the packed [vector | scalars] payload
// with randomized vector lengths (deliberately non-divisible by the group
// size) and scalar counts, for group sizes 1, 2, 3 and 7: one all-reduce of
// the packed buffer must match per-piece all-reduces of the vector and each
// scalar, and the packed result must be bit-identical across ranks — the
// property the distributed SR solve's one-collective-per-CG-iteration
// packing relies on.
func TestPackedAllReduceProperty(t *testing.T) {
	f := func(nRaw, sRaw uint8, seed uint64) bool {
		for _, p := range []int{1, 2, 3, 7} {
			n := 1 + int(nRaw)%211
			if p > 1 && n%p == 0 {
				n++ // force ragged ring chunking
			}
			ns := 1 + int(sRaw)%5
			r := rng.New(seed + uint64(p))

			packs := make([]*Packed, p)
			vecs := make([][]float64, p)    // separate vector payloads
			scals := make([][][]float64, p) // separate 1-elem scalar payloads
			for rank := 0; rank < p; rank++ {
				lens := make([]int, 1+ns)
				lens[0] = n
				for i := 1; i <= ns; i++ {
					lens[i] = 1
				}
				packs[rank] = NewPacked(lens...)
				r.FillUniform(packs[rank].Buf(), -10, 10)
				vecs[rank] = append([]float64(nil), packs[rank].Section(0)...)
				scals[rank] = make([][]float64, ns)
				for i := 0; i < ns; i++ {
					scals[rank][i] = append([]float64(nil), packs[rank].Section(1+i)...)
				}
			}

			g := NewGroup(p)
			runCollective(g, func(c *Comm) { packs[c.Rank()].AllReduce(c) })
			// Per-piece references, each reduced in its own collective.
			gv := NewGroup(p)
			runCollective(gv, func(c *Comm) { c.AllReduceSum(vecs[c.Rank()]) })
			for i := 0; i < ns; i++ {
				gs := NewGroup(p)
				runCollective(gs, func(c *Comm) { c.AllReduceSum(scals[c.Rank()][i]) })
			}

			for rank := 0; rank < p; rank++ {
				vec := packs[rank].Section(0)
				for j := range vec {
					if math.Abs(vec[j]-vecs[rank][j]) > 1e-8 {
						return false
					}
				}
				for i := 0; i < ns; i++ {
					if math.Abs(packs[rank].Section(1 + i)[0]-scals[rank][i][0]) > 1e-8 {
						return false
					}
				}
				// Cross-rank bit-identity of the packed result.
				for j, v := range packs[rank].Buf() {
					if v != packs[0].Buf()[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPackedLayout pins the section bookkeeping: aliasing, offsets, Zero.
func TestPackedLayout(t *testing.T) {
	p := NewPacked(3, 0, 2, 1)
	if p.Len() != 6 {
		t.Fatalf("Len = %d, want 6", p.Len())
	}
	if len(p.Section(0)) != 3 || len(p.Section(1)) != 0 || len(p.Section(2)) != 2 || len(p.Section(3)) != 1 {
		t.Fatal("section lengths wrong")
	}
	p.Section(0)[2] = 7
	p.Section(2)[0] = 8
	p.Section(3)[0] = 9
	want := []float64{0, 0, 7, 8, 0, 9}
	for i, v := range p.Buf() {
		if v != want[i] {
			t.Fatalf("buf[%d] = %v, want %v (sections must alias the buffer)", i, v, want[i])
		}
	}
	p.Zero()
	for i, v := range p.Buf() {
		if v != 0 {
			t.Fatalf("buf[%d] = %v after Zero", i, v)
		}
	}
	for _, bad := range []func(){
		func() { NewPacked(-1) },
		func() { NewPacked() },
		func() { NewPacked(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid layout should panic")
				}
			}()
			bad()
		}()
	}
}
