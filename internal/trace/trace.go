// Package trace defines the trace abstraction that drives the RAMpage
// simulator, together with binary and text trace-file formats, stream
// combinators and a multiprogramming interleaver.
//
// The paper (§4.2) drives its simulations with 1.1 billion references
// from 18 address traces, interleaved every 500,000 references to model
// a multiprogrammed workload. At that scale traces cannot be
// materialised in memory, and streams are read in one of two ways. A
// Reader delivers one reference per Next call: trace files, the text
// format, the interleaver, Concat and SliceReader are Readers. A
// ColumnReader also writes kinds and addresses straight into columns,
// which is how the simulator reads every synthetic generator (package
// synth); ReadColumns bridges any other Reader to columns. A captured
// ColumnarBuffer is replayed in place.
package trace

import (
	"errors"
	"io"

	"rampage/internal/mem"
)

// Reader is a stream of memory references. Next returns io.EOF when
// the stream is exhausted; any other error is a malformed or unreadable
// trace.
type Reader interface {
	Next() (mem.Ref, error)
}

// ColumnReader is a single-process stream that writes kinds and
// addresses straight into caller-owned columns, with the process ID
// given once for the whole stream. Every synthetic generator is one.
//
// ReadColumns fills the equal-length columns kinds and addrs with up
// to len(kinds) references and returns the number written. The first
// n entries are valid whatever err is. End of stream is io.EOF, either
// with the final batch or as (0, io.EOF) on the call after it; any
// other error is a failed stream, and may likewise come with the
// references read before it.
type ColumnReader interface {
	Reader
	PID() mem.PID
	ReadColumns(kinds []mem.RefKind, addrs []mem.VAddr) (n int, err error)
}

// ReadColumns fills the equal-length columns kinds and addrs from r.
// A ColumnReader fills them itself. Any other stream is read one Next
// at a time, keeping each reference's kind and address and dropping
// its PID: this is the one bridge from rows to columns. The contract
// is that of ColumnReader.ReadColumns.
func ReadColumns(r Reader, kinds []mem.RefKind, addrs []mem.VAddr) (int, error) {
	if cr, ok := r.(ColumnReader); ok {
		return cr.ReadColumns(kinds, addrs)
	}
	addrs = addrs[:len(kinds)]
	for i := range kinds {
		ref, err := r.Next()
		if err != nil {
			if i > 0 && err == io.EOF {
				return i, nil // io.EOF again on the next call
			}
			return i, err
		}
		kinds[i], addrs[i] = ref.Kind, ref.Addr
	}
	return len(kinds), nil
}

// ReadBatch fills dst from r one Next at a time and returns the number
// of references written. The contract is that of
// ColumnReader.ReadColumns, with rows for columns.
func ReadBatch(r Reader, dst []mem.Ref) (int, error) {
	for i := range dst {
		ref, err := r.Next()
		if err != nil {
			if i > 0 && err == io.EOF {
				return i, nil // io.EOF again on the next call
			}
			return i, err
		}
		dst[i] = ref
	}
	return len(dst), nil
}

// Writer consumes memory references, typically into a trace file.
type Writer interface {
	Write(mem.Ref) error
}

// ErrCorrupt is returned by file readers when a trace file fails
// structural validation.
var ErrCorrupt = errors.New("trace: corrupt trace file")

// SliceReader replays a fixed slice of references. It is the in-memory
// Reader used throughout the test suite and by small examples.
type SliceReader struct {
	refs []mem.Ref
	pos  int
}

// NewSliceReader returns a Reader over refs. The slice is not copied;
// the caller must not mutate it while reading.
func NewSliceReader(refs []mem.Ref) *SliceReader {
	return &SliceReader{refs: refs}
}

// Next implements Reader.
func (s *SliceReader) Next() (mem.Ref, error) {
	if s.pos >= len(s.refs) {
		return mem.Ref{}, io.EOF
	}
	r := s.refs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the reader to the beginning of the slice.
func (s *SliceReader) Reset() { s.pos = 0 }

// Concat chains readers end to end: when one returns io.EOF the next
// takes over.
type Concat struct {
	readers []Reader
}

// NewConcat returns a Reader that drains each reader in turn.
func NewConcat(readers ...Reader) *Concat {
	return &Concat{readers: readers}
}

// Next implements Reader.
func (c *Concat) Next() (mem.Ref, error) {
	for len(c.readers) > 0 {
		ref, err := c.readers[0].Next()
		if err == io.EOF {
			c.readers = c.readers[1:]
			continue
		}
		return ref, err
	}
	return mem.Ref{}, io.EOF
}

// Drain reads r to exhaustion and returns all references. It is a test
// and tooling helper; do not use it on full-scale synthetic streams.
func Drain(r Reader) ([]mem.Ref, error) {
	var refs []mem.Ref
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return refs, err
		}
		refs = append(refs, ref)
	}
}

// Copy streams every reference from r into w and returns the number
// copied.
func Copy(w Writer, r Reader) (uint64, error) {
	var n uint64
	for {
		ref, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(ref); err != nil {
			return n, err
		}
		n++
	}
}
