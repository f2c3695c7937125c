package nn

import (
	"fmt"
	"strings"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// family is one row of the family table: every fact the package, the
// checkpoint format and the facade key on a family name.
type family struct {
	name   string // the vocabulary of New, KindName and the CLI -model flags
	kind   byte   // the checkpoint kind byte
	build  func(n, h int, r *rng.Rand) Wavefunction
	is     func(wf Wavefunction) bool // wf has this family's type
	params func(n, h int64) int64     // d at (n, h); int64 so hostile checkpoint headers cannot overflow it
	hidden func(n int) int            // the default hidden width at n sites
}

// row builds the family of model type T from T's constructor. T must be
// what the trainers need of a model (core.Model) and report the width a
// checkpoint header records, so every model New or LoadWavefunction returns
// is a core.Model.
func row[T interface {
	Wavefunction
	CacheBuilder
	BatchEvaluatorBuilder
	Hidden() int
}](name string, kind byte, newT func(n, h int, r *rng.Rand) T, params func(n, h int64) int64, hidden func(n int) int) family {
	return family{name, kind, func(n, h int, r *rng.Rand) Wavefunction { return newT(n, h, r) },
		func(wf Wavefunction) bool { _, ok := wf.(T); return ok }, params, hidden}
}

// families is the one table of wavefunction families, in kind-byte order.
// Adding a family is adding a row.
var families = []family{
	// W1 (h x n) + b1 (h) + W2 (n x h) + b2 (n); the paper's width rule.
	row("made", 1, NewMADE, func(n, h int64) int64 { return 2*h*n + h + n }, HiddenMADE),
	// W (h x n) + A (n) + C (h) + scale; one hidden unit per site.
	row("rbm", 2, NewRBM, func(n, h int64) int64 { return h*n + n + h + 1 }, func(n int) int { return n }),
	// W (h x n) + c (h) + V (n x h) + b (n): MADE's count and width.
	row("nade", 3, NewNADE, func(n, h int64) int64 { return 2*h*n + h + n }, HiddenMADE),
}

// lookup returns the first family match accepts, nil if none does.
func lookup(match func(f *family) bool) *family {
	for i := range families {
		if match(&families[i]) {
			return &families[i]
		}
	}
	return nil
}

// named returns the family called name in any letter case, nil if none is.
func named(name string) *family {
	return lookup(func(f *family) bool { return strings.EqualFold(f.name, name) })
}

// familyOf returns wf's family, nil for a type outside the table.
func familyOf(wf Wavefunction) *family { return lookup(func(f *family) bool { return f.is(wf) }) }

// Kinds returns the family names New accepts, in kind-byte order.
func Kinds() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// New builds the named family's model (name in any letter case; see Kinds)
// with n sites and hidden width h, drawing its initial parameters from r.
// An unknown name is an error.
func New(name string, n, h int, r *rng.Rand) (Wavefunction, error) {
	f := named(name)
	if f == nil {
		return nil, fmt.Errorf("nn: unknown wavefunction family %q (want %s)", name, strings.Join(Kinds(), ", "))
	}
	return f.build(n, h, r), nil
}

// DefaultHidden returns the named family's default hidden width at n sites
// (name in any letter case; an unknown name gets HiddenMADE, the paper's
// rule): see the family table.
func DefaultHidden(name string, n int) int {
	if f := named(name); f != nil {
		return f.hidden(n)
	}
	return HiddenMADE(n)
}

// KindName returns the stable lowercase family name of a wavefunction
// (one of Kinds) — the same vocabulary the CLI -model flags use and the
// checkpoint kind byte encodes — or "" for an unknown type. The serving
// layer's model listings and hot-swap validation key off it.
func KindName(wf Wavefunction) string {
	if f := familyOf(wf); f != nil {
		return f.name
	}
	return ""
}

// HotSwapParams replaces dst's parameters with src's in place and
// invalidates dst's derived caches — the checkpoint hot-swap primitive the
// serving layer uses to move a live model to a new checkpoint without
// rebuilding evaluators: every BatchEvaluator holding dst finds the
// model's derived caches marked stale and rebuilds them on next use.
//
// The swap is legal only between models of the same family and
// architecture; (family, NumSites, NumParams) pins the hidden width for
// every family, so those three checks suffice. A src holding a NaN or
// infinite parameter is refused like a checkpoint holding one
// (LoadWavefunction). A refused swap leaves dst untouched. dst must not be
// concurrently evaluating — callers serialize the swap against dispatch
// (the serve coalescer applies it as a queue barrier between batches).
func HotSwapParams(dst, src Wavefunction) error {
	df, sf := familyOf(dst), familyOf(src)
	if df == nil || sf == nil {
		return fmt.Errorf("nn: cannot hot-swap %T into %T", src, dst)
	}
	if df != sf {
		return fmt.Errorf("nn: hot-swap family mismatch: live model is %s, checkpoint is %s", df.name, sf.name)
	}
	if dst.NumSites() != src.NumSites() || dst.NumParams() != src.NumParams() {
		return fmt.Errorf("nn: hot-swap architecture mismatch: live %s has n=%d d=%d, checkpoint n=%d d=%d",
			df.name, dst.NumSites(), dst.NumParams(), src.NumSites(), src.NumParams())
	}
	for i, v := range src.Params() {
		if err := checkFinite(i, v); err != nil {
			return err
		}
	}
	copy(dst.Params(), src.Params())
	InvalidateParams(dst)
	return nil
}
