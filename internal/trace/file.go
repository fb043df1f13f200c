package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"rampage/internal/mem"
)

// Binary trace file format
//
// Trace files begin with a fixed header:
//
//	offset 0: magic "RMPT" (4 bytes)
//	offset 4: format version (1 byte, currently 1)
//
// followed by a sequence of records. Each record is:
//
//	header byte: bits 0-1 = RefKind, bit 2 = PID unchanged from the
//	             previous record
//	[uvarint PID]     — only if bit 2 is clear
//	zigzag-varint     — address delta from the previous address seen
//	                    for this PID (first reference for a PID is a
//	                    delta from zero)
//
// Per-PID delta encoding exploits the spatial locality of real traces:
// sequential instruction fetch and strided data sweeps compress to one
// or two bytes per reference.

const (
	fileMagic   = "RMPT"
	fileVersion = 1

	kindMask    = 0x03
	samePIDFlag = 0x04
)

// FileWriter writes the binary trace format to an io.Writer.
type FileWriter struct {
	w       *bufio.Writer
	started bool
	lastPID mem.PID
	lastVA  map[mem.PID]mem.VAddr
	buf     [binary.MaxVarintLen64]byte
}

// NewFileWriter writes the file header and returns a Writer.
func NewFileWriter(w io.Writer) (*FileWriter, error) {
	fw := &FileWriter{
		w:      bufio.NewWriter(w),
		lastVA: make(map[mem.PID]mem.VAddr),
	}
	if _, err := fw.w.WriteString(fileMagic); err != nil {
		return nil, err
	}
	if err := fw.w.WriteByte(fileVersion); err != nil {
		return nil, err
	}
	return fw, nil
}

// Write implements Writer.
func (fw *FileWriter) Write(r mem.Ref) error {
	if r.Kind > mem.Store {
		return fmt.Errorf("trace: cannot encode reference kind %d", r.Kind)
	}
	hdr := byte(r.Kind)
	samePID := fw.started && r.PID == fw.lastPID
	if samePID {
		hdr |= samePIDFlag
	}
	if err := fw.w.WriteByte(hdr); err != nil {
		return err
	}
	if !samePID {
		n := binary.PutUvarint(fw.buf[:], uint64(r.PID))
		if _, err := fw.w.Write(fw.buf[:n]); err != nil {
			return err
		}
	}
	delta := int64(r.Addr) - int64(fw.lastVA[r.PID])
	n := binary.PutVarint(fw.buf[:], delta)
	if _, err := fw.w.Write(fw.buf[:n]); err != nil {
		return err
	}
	fw.started = true
	fw.lastPID = r.PID
	fw.lastVA[r.PID] = r.Addr
	return nil
}

// Flush writes any buffered records to the underlying writer. It must
// be called before the file is closed.
func (fw *FileWriter) Flush() error { return fw.w.Flush() }

// FileReader reads the binary trace format.
type FileReader struct {
	r       *bufio.Reader
	started bool
	lastPID mem.PID
	lastVA  map[mem.PID]mem.VAddr
}

// NewFileReader validates the header and returns a Reader.
func NewFileReader(r io.Reader) (*FileReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: missing version", ErrCorrupt)
	}
	if ver != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	return &FileReader{r: br, lastVA: make(map[mem.PID]mem.VAddr)}, nil
}

// Next implements Reader.
func (fr *FileReader) Next() (mem.Ref, error) {
	hdr, err := fr.r.ReadByte()
	if err == io.EOF {
		return mem.Ref{}, io.EOF
	}
	if err != nil {
		return mem.Ref{}, err
	}
	kind := mem.RefKind(hdr & kindMask)
	if kind > mem.Store {
		return mem.Ref{}, fmt.Errorf("%w: bad kind %d", ErrCorrupt, kind)
	}
	pid := fr.lastPID
	if hdr&samePIDFlag == 0 {
		v, err := binary.ReadUvarint(fr.r)
		if err != nil {
			return mem.Ref{}, fmt.Errorf("%w: truncated PID", ErrCorrupt)
		}
		if v > uint64(mem.KernelPID) {
			return mem.Ref{}, fmt.Errorf("%w: PID %d out of range", ErrCorrupt, v)
		}
		pid = mem.PID(v)
	} else if !fr.started {
		return mem.Ref{}, fmt.Errorf("%w: first record has same-PID flag", ErrCorrupt)
	}
	delta, err := binary.ReadVarint(fr.r)
	if err != nil {
		return mem.Ref{}, fmt.Errorf("%w: truncated address", ErrCorrupt)
	}
	addr := mem.VAddr(int64(fr.lastVA[pid]) + delta)
	fr.started = true
	fr.lastPID = pid
	fr.lastVA[pid] = addr
	return mem.Ref{PID: pid, Kind: kind, Addr: addr}, nil
}
