// Package trace defines the trace abstraction that drives the RAMpage
// simulator, together with binary and text trace-file formats, stream
// combinators and a multiprogramming interleaver.
//
// The paper (§4.2) drives its simulations with 1.1 billion references
// from 18 address traces, interleaved every 500,000 references to model
// a multiprogrammed workload. At that scale traces cannot be
// materialised in memory, so the central abstraction is a streaming
// Reader; synthetic workload generators (package synth), trace files
// and combinators all implement it.
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

// BatchReader is implemented by Readers that can deliver many
// references per call, amortising per-reference dispatch and state-
// machine overhead in the simulator hot loop.
//
// ReadBatch fills dst with up to len(dst) references and returns the
// number written. The first n entries of dst are valid regardless of
// err. End of stream is reported as (0, io.EOF) — implementations may
// return a full or partial batch with a nil error and deliver io.EOF
// on the following call. A non-EOF error may accompany n > 0 when the
// stream failed mid-batch.
type BatchReader interface {
	Reader
	ReadBatch(dst []mem.Ref) (n int, err error)
}

// ReadBatch fills dst from r, using r's native batch path when it has
// one and falling back to a Next loop otherwise. The contract is that
// of BatchReader.ReadBatch.
func ReadBatch(r Reader, dst []mem.Ref) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.ReadBatch(dst)
	}
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

// ReadBatch implements BatchReader.
func (s *SliceReader) ReadBatch(dst []mem.Ref) (int, error) {
	if s.pos >= len(s.refs) {
		return 0, io.EOF
	}
	n := copy(dst, s.refs[s.pos:])
	s.pos += n
	return n, nil
}

// Reset rewinds the reader to the beginning of the slice.
func (s *SliceReader) Reset() { s.pos = 0 }

// Limit wraps r so that at most n references are delivered. It models
// the paper's practice of truncating traces to a fixed reference
// budget.
type Limit struct {
	r         Reader
	remaining uint64
}

// NewLimit returns a Reader that yields at most n references from r.
func NewLimit(r Reader, n uint64) *Limit {
	return &Limit{r: r, remaining: n}
}

// Next implements Reader.
func (l *Limit) Next() (mem.Ref, error) {
	if l.remaining == 0 {
		return mem.Ref{}, io.EOF
	}
	ref, err := l.r.Next()
	if err != nil {
		return mem.Ref{}, err
	}
	l.remaining--
	return ref, nil
}

// ReadBatch implements BatchReader.
func (l *Limit) ReadBatch(dst []mem.Ref) (int, error) {
	if l.remaining == 0 {
		return 0, io.EOF
	}
	if uint64(len(dst)) > l.remaining {
		dst = dst[:l.remaining]
	}
	n, err := ReadBatch(l.r, dst)
	l.remaining -= uint64(n)
	return n, err
}

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

// ReadBatch implements BatchReader.
func (c *Concat) ReadBatch(dst []mem.Ref) (int, error) {
	for len(c.readers) > 0 {
		n, err := ReadBatch(c.readers[0], dst)
		if err == io.EOF {
			c.readers = c.readers[1:]
			if n > 0 {
				return n, nil
			}
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

// Counting wraps a Reader and counts the references delivered. The
// simulator uses it to enforce reference budgets and to report
// progress.
type Counting struct {
	r Reader
	n uint64
}

// NewCounting returns a counting wrapper around r.
func NewCounting(r Reader) *Counting { return &Counting{r: r} }

// Next implements Reader.
func (c *Counting) Next() (mem.Ref, error) {
	ref, err := c.r.Next()
	if err == nil {
		c.n++
	}
	return ref, err
}

// ReadBatch implements BatchReader.
func (c *Counting) ReadBatch(dst []mem.Ref) (int, error) {
	n, err := ReadBatch(c.r, dst)
	c.n += uint64(n)
	return n, err
}

// Count returns the number of references delivered so far.
func (c *Counting) Count() uint64 { return c.n }

// Retag wraps a Reader and overrides the PID of every reference. The
// interleaver uses it to assign process identities to per-benchmark
// streams, and the OS-trace machinery uses it to tag handler code with
// mem.KernelPID.
type Retag struct {
	r   Reader
	pid mem.PID
}

// NewRetag returns a Reader identical to r except that every reference
// carries the given PID.
func NewRetag(r Reader, pid mem.PID) *Retag { return &Retag{r: r, pid: pid} }

// Next implements Reader.
func (t *Retag) Next() (mem.Ref, error) {
	ref, err := t.r.Next()
	if err != nil {
		return mem.Ref{}, err
	}
	ref.PID = t.pid
	return ref, nil
}

// ReadBatch implements BatchReader, retagging the delivered batch in
// place.
func (t *Retag) ReadBatch(dst []mem.Ref) (int, error) {
	n, err := ReadBatch(t.r, dst)
	for i := 0; i < n; i++ {
		dst[i].PID = t.pid
	}
	return n, err
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
