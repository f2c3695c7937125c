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
// shipped. Format: magic "PVQ1", the family's kind byte (its row of the
// family table, family.go), n, h, d as uint32, then d float64 parameters.

const checkpointMagic = "PVQ1"

// SaveWavefunction writes a checkpoint of any family in the table to w.
func SaveWavefunction(w io.Writer, wf Wavefunction) error {
	f := familyOf(wf)
	if f == nil {
		return fmt.Errorf("nn: cannot checkpoint %T", wf)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(f.kind); err != nil {
		return err
	}
	params := wf.Params()
	for _, v := range []uint32{uint32(wf.NumSites()), uint32(wf.(interface{ Hidden() int }).Hidden()), uint32(len(params))} {
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
// masks and loading the saved parameters. The returned value has the
// concrete type of the family the kind byte names.
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
	f := lookup(func(f *family) bool { return f.kind == kind })
	if f == nil {
		return nil, fmt.Errorf("nn: unknown checkpoint kind %d", kind)
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
	want := f.params(int64(n), int64(h))
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
	wf := f.build(n, h, rng.New(0))
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
