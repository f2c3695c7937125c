package nn

import "fmt"

// KindName returns the stable lowercase family name of a wavefunction
// ("made", "rbm", "nade", "rnn") — the same vocabulary the CLI -model
// flags and the checkpoint kind byte use — or "" for an unknown type.
// The serving layer's model listings and hot-swap validation key off it.
func KindName(wf Wavefunction) string {
	switch wf.(type) {
	case *MADE:
		return "made"
	case *RBM:
		return "rbm"
	case *NADE:
		return "nade"
	case *RNNWavefunction:
		return "rnn"
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
// architecture; (kind, NumSites, NumParams) pins the hidden width for every
// family, so those three checks suffice. dst must not be concurrently
// evaluating — callers serialize the swap against dispatch (the serve
// coalescer applies it as a queue barrier between batches).
func HotSwapParams(dst, src Wavefunction) error {
	dk, sk := KindName(dst), KindName(src)
	if dk == "" {
		return fmt.Errorf("nn: cannot hot-swap into %T", dst)
	}
	if sk == "" {
		return fmt.Errorf("nn: cannot hot-swap from %T", src)
	}
	if dk != sk {
		return fmt.Errorf("nn: hot-swap family mismatch: live model is %s, checkpoint is %s", dk, sk)
	}
	if dst.NumSites() != src.NumSites() || dst.NumParams() != src.NumParams() {
		return fmt.Errorf("nn: hot-swap architecture mismatch: live %s has n=%d d=%d, checkpoint n=%d d=%d",
			dk, dst.NumSites(), dst.NumParams(), src.NumSites(), src.NumParams())
	}
	copy(dst.Params(), src.Params())
	InvalidateParams(dst)
	return nil
}
