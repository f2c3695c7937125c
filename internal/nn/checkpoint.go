package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/vqmc-scale/parvqmc/internal/rng"
)

// Checkpointing serializes a wavefunction's architecture header and flat
// parameter vector in a small self-describing little-endian binary format,
// so long optimizations can be stopped and resumed and trained models
// shipped. Format: magic "PVQ1", kind byte (1=MADE, 2=RBM, 3=NADE, 4=RNN),
// n, h, d as uint32, then d float64 parameters.

const checkpointMagic = "PVQ1"

const (
	kindMADE byte = 1
	kindRBM  byte = 2
	kindNADE byte = 3
	kindRNN  byte = 4
)

// SaveWavefunction writes a MADE, RBM, NADE, or RNN checkpoint to w.
func SaveWavefunction(w io.Writer, wf Wavefunction) error {
	bw := bufio.NewWriter(w)
	var kind byte
	var n, h int
	switch m := wf.(type) {
	case *MADE:
		kind, n, h = kindMADE, m.NumSites(), m.Hidden()
	case *RBM:
		kind, n, h = kindRBM, m.NumSites(), m.Hidden()
	case *NADE:
		kind, n, h = kindNADE, m.NumSites(), m.Hidden()
	case *RNNWavefunction:
		kind, n, h = kindRNN, m.NumSites(), m.Hidden()
	default:
		return fmt.Errorf("nn: cannot checkpoint %T", wf)
	}
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(kind); err != nil {
		return err
	}
	params := wf.Params()
	for _, v := range []uint32{uint32(n), uint32(h), uint32(len(params))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	for _, p := range params {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(p))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadWavefunction reads a checkpoint, reconstructing the model with its
// masks and loading the saved parameters. The returned value is a *MADE,
// *RBM, *NADE, or *RNNWavefunction.
func LoadWavefunction(r io.Reader) (Wavefunction, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("nn: bad checkpoint magic %q", magic)
	}
	kind, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	var n32, h32, d32 uint32
	for _, p := range []*uint32{&n32, &h32, &d32} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	n, h, d := int(n32), int(h32), int(d32)
	if n < 1 || h < 1 || d < 1 {
		return nil, fmt.Errorf("nn: corrupt checkpoint header (n=%d h=%d d=%d)", n, h, d)
	}
	// Validate the header against the architecture's derived parameter
	// count BEFORE constructing the model: the O(n*h) mask and weight
	// allocations must never run on attacker-or-corruption-controlled
	// dimensions that the payload cannot back up. The arithmetic is done in
	// int64 so absurd n/h cannot overflow the check itself.
	want, err := expectedParamCount(kind, n, h)
	if err != nil {
		return nil, err
	}
	if int64(d) != want {
		return nil, fmt.Errorf("nn: checkpoint header says %d params, kind %d with n=%d h=%d needs %d",
			d, kind, n, h, want)
	}
	const maxParams = 1 << 28 // ~2 GiB of float64s; far beyond any real model
	if want > maxParams {
		return nil, fmt.Errorf("nn: checkpoint dims n=%d h=%d imply %d params, over the %d cap",
			n, h, want, int64(maxParams))
	}
	// Read the payload before constructing the model: the buffer grows with
	// the bytes actually read, so a header claiming more parameters than the
	// stream holds cannot allocate for them.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, br, 8*int64(d)); err != nil {
		return nil, err
	}
	// Construct with an arbitrary seed; every parameter is overwritten by
	// the checkpoint payload (masks are deterministic in (n, h)).
	var wf Wavefunction
	switch kind {
	case kindMADE:
		wf = NewMADE(n, h, rng.New(0))
	case kindRBM:
		wf = NewRBM(n, h, rng.New(0))
	case kindNADE:
		wf = NewNADE(n, h, rng.New(0))
	case kindRNN:
		wf = NewRNN(n, h, rng.New(0))
	}
	params := wf.Params()
	if len(params) != d {
		return nil, fmt.Errorf("nn: checkpoint has %d params, model needs %d", d, len(params))
	}
	raw := payload.Bytes()
	for i := range params {
		params[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	InvalidateParams(wf)
	return wf, nil
}

// expectedParamCount returns the flat parameter count a (kind, n, h)
// architecture derives to, in int64 so huge headers cannot overflow the
// validation arithmetic. It rejects unknown kinds.
func expectedParamCount(kind byte, n, h int) (int64, error) {
	N, H := int64(n), int64(h)
	switch kind {
	case kindMADE:
		// W1 (h x n) + b1 (h) + W2 (n x h) + b2 (n); see NewMADE.
		return 2*H*N + H + N, nil
	case kindRBM:
		// W (h x n) + A (n) + C (h) + scale; see NewRBM.
		return H*N + N + H + 1, nil
	case kindNADE:
		// W (h x n) + c (h) + V (n x h) + b (n); see NewNADE. Same count as
		// MADE at equal width — the kind byte disambiguates.
		return 2*H*N + H + N, nil
	case kindRNN:
		// Wh (h x h) + Wx (h) + Bh (h) + S0 (h) + V (h) + Bout (n); see NewRNN.
		return H*H + 4*H + N, nil
	default:
		return 0, fmt.Errorf("nn: unknown checkpoint kind %d", kind)
	}
}

// SaveFile writes a checkpoint to path atomically: the bytes go to a
// temporary file in the same directory, are fsynced, and replace path with
// a rename. A crash mid-write (or mid-failure-recovery, which leans on
// checkpoints being trustworthy) therefore leaves either the old complete
// file or the new complete file — never a truncated hybrid.
func SaveFile(path string, wf Wavefunction) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := SaveWavefunction(f, wf); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile loads a checkpoint from a file.
func LoadFile(path string) (Wavefunction, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWavefunction(f)
}
