package trace

import (
	"fmt"
	"io"
	"slices"

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

// Ref reconstructs reference i.
func (b *ColumnarBuffer) Ref(i int) mem.Ref {
	return mem.Ref{PID: b.PID, Kind: b.Kinds[i], Addr: b.Addrs[i]}
}

// Append adds one reference to the columns.
func (b *ColumnarBuffer) Append(kind mem.RefKind, addr mem.VAddr) {
	b.Kinds = append(b.Kinds, kind)
	b.Addrs = append(b.Addrs, addr)
}

// captureChunk is how many references a capture reads per call.
const captureChunk = 4096

// CaptureColumnar drains r — at most limit references, or the whole
// stream when limit is 0 — into a ColumnarBuffer. A ColumnReader is
// read in column chunks straight into the buffer. Any other stream is
// read one Next at a time and must be single-process: a second PID
// aborts the capture with an error (the caller falls back to refilling
// from the stream). The references read are bit-identical to what the
// same Reader would have delivered to the simulator directly.
func CaptureColumnar(r Reader, limit uint64) (*ColumnarBuffer, error) {
	buf := &ColumnarBuffer{}
	if limit > 0 {
		buf.Kinds = make([]mem.RefKind, 0, limit)
		buf.Addrs = make([]mem.VAddr, 0, limit)
	}
	cr, ok := r.(ColumnReader)
	if !ok {
		return captureRows(r, limit, buf)
	}
	buf.PID = cr.PID()
	for {
		kinds, addrs := buf.Kinds, buf.Addrs
		n := len(kinds)
		chunk := captureChunk
		if limit > 0 && limit-uint64(n) < captureChunk {
			chunk = int(limit - uint64(n))
		}
		if chunk == 0 {
			return buf, nil
		}
		kinds, addrs = slices.Grow(kinds, chunk), slices.Grow(addrs, chunk)
		got, err := cr.ReadColumns(kinds[n:n+chunk], addrs[n:n+chunk])
		buf.Kinds, buf.Addrs = kinds[:n+got], addrs[:n+got]
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

// captureRows is CaptureColumnar for a stream without a column path.
func captureRows(r Reader, limit uint64, buf *ColumnarBuffer) (*ColumnarBuffer, error) {
	for n := uint64(0); limit == 0 || n < limit; n++ {
		ref, err := r.Next()
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			buf.PID = ref.PID
		} else if ref.PID != buf.PID {
			return nil, fmt.Errorf("trace: columnar capture saw PIDs %d and %d; stream is not single-process", buf.PID, ref.PID)
		}
		buf.Append(ref.Kind, ref.Addr)
	}
	return buf, nil
}

// ColumnarReader replays a ColumnarBuffer. The scheduler executes it
// in place through Tail and Skip; Next rebuilds one reference at a
// time for any other consumer. The buffer is not copied — several
// ColumnarReaders may replay the same buffer concurrently (the buffer
// is read-only while being replayed).
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
