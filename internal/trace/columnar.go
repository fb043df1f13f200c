package trace

import (
	"fmt"
	"io"

	"rampage/internal/mem"
)

// ColumnarBuffer holds a single-process reference stream in
// structure-of-arrays form: one kind byte and one address word per
// reference, with the process ID stored once for the whole stream.
// Compared with a []mem.Ref it drops the per-reference PID and the
// struct padding (9 bytes per reference instead of 16), and a sweep
// can capture a workload once and replay it from the columns in every
// grid cell without regenerating or re-boxing anything.
type ColumnarBuffer struct {
	// PID tags every reference in the stream (synthetic workload
	// generators emit single-process streams; the scheduler retags
	// per simulated process anyway).
	PID mem.PID
	// Kinds and Addrs are parallel columns: reference i is
	// {PID, Kinds[i], Addrs[i]}.
	Kinds []mem.RefKind
	Addrs []mem.VAddr
}

// Len returns the number of references in the buffer.
func (b *ColumnarBuffer) Len() int { return len(b.Kinds) }

// Append adds one reference to the columns.
func (b *ColumnarBuffer) Append(kind mem.RefKind, addr mem.VAddr) {
	b.Kinds = append(b.Kinds, kind)
	b.Addrs = append(b.Addrs, addr)
}

// Ref reconstructs reference i.
func (b *ColumnarBuffer) Ref(i int) mem.Ref {
	return mem.Ref{PID: b.PID, Kind: b.Kinds[i], Addr: b.Addrs[i]}
}

// captureChunk sizes the scratch batch used when draining a Reader
// into columns.
const captureChunk = 4096

// CaptureColumnar drains r — at most limit references, or the whole
// stream when limit is 0 — into a ColumnarBuffer. The stream must be
// single-process: a second PID aborts the capture with an error (the
// caller falls back to row-form preloading). The references read are
// bit-identical to what the same Reader would have delivered to the
// simulator directly, because the drain uses the Reader's own batch
// path.
func CaptureColumnar(r Reader, limit uint64) (*ColumnarBuffer, error) {
	buf := &ColumnarBuffer{}
	if limit > 0 {
		buf.Kinds = make([]mem.RefKind, 0, limit)
		buf.Addrs = make([]mem.VAddr, 0, limit)
	}
	var scratch [captureChunk]mem.Ref
	first := true
	var n uint64
	for {
		chunk := scratch[:]
		if limit > 0 && limit-n < captureChunk {
			chunk = scratch[:limit-n]
		}
		if len(chunk) == 0 {
			return buf, nil
		}
		got, err := ReadBatch(r, chunk)
		for _, ref := range chunk[:got] {
			if first {
				buf.PID = ref.PID
				first = false
			} else if ref.PID != buf.PID {
				return nil, fmt.Errorf("trace: columnar capture saw PIDs %d and %d; stream is not single-process", buf.PID, ref.PID)
			}
			buf.Append(ref.Kind, ref.Addr)
		}
		n += uint64(got)
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if got == 0 {
			return buf, nil
		}
	}
}

// ColumnarReader replays a ColumnarBuffer. It implements Reader and
// BatchReader; ReadBatch rebuilds references from the columns in one
// tight loop with no per-reference interface dispatch. The buffer is
// not copied — several ColumnarReaders may replay the same buffer
// concurrently (the buffer is read-only while being replayed).
type ColumnarReader struct {
	buf *ColumnarBuffer
	pos int
}

// NewColumnarReader returns a reader positioned at the stream start.
func NewColumnarReader(buf *ColumnarBuffer) *ColumnarReader {
	return &ColumnarReader{buf: buf}
}

// Next implements Reader.
func (r *ColumnarReader) Next() (mem.Ref, error) {
	if r.pos >= r.buf.Len() {
		return mem.Ref{}, io.EOF
	}
	ref := r.buf.Ref(r.pos)
	r.pos++
	return ref, nil
}

// ReadBatch implements BatchReader.
func (r *ColumnarReader) ReadBatch(dst []mem.Ref) (int, error) {
	if r.pos >= r.buf.Len() {
		return 0, io.EOF
	}
	kinds := r.buf.Kinds[r.pos:]
	addrs := r.buf.Addrs[r.pos:]
	n := len(dst)
	if n > len(kinds) {
		n = len(kinds)
	}
	addrs = addrs[:len(kinds)]
	for i := 0; i < n; i++ {
		dst[i] = mem.Ref{PID: r.buf.PID, Kind: kinds[i], Addr: addrs[i]}
	}
	r.pos += n
	return n, nil
}

// Remaining reports how many references are left, satisfying the
// harness's preload-size probe.
func (r *ColumnarReader) Remaining() uint64 { return uint64(r.buf.Len() - r.pos) }

// Reset rewinds to the stream start.
func (r *ColumnarReader) Reset() { r.pos = 0 }

// Tail returns direct views of the unread remainder of the columns.
// The views alias the buffer; a consumer that executes n references
// from them must advance the cursor with Skip(n). This is the zero-copy
// handoff the scheduler uses to feed machines without materializing
// mem.Ref rows.
func (r *ColumnarReader) Tail() ([]mem.RefKind, []mem.VAddr) {
	return r.buf.Kinds[r.pos:], r.buf.Addrs[r.pos:]
}

// Skip advances the cursor past n references consumed via Tail views.
func (r *ColumnarReader) Skip(n int) { r.pos += n }
