package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// countingReader serves a slice of references in full column batches
// and counts how many have been read from it. It does not report its
// length.
type countingReader struct {
	refs []mem.Ref
	read int
}

// ReadColumns implements trace.ColumnReader.
func (c *countingReader) ReadColumns(kinds []mem.RefKind, addrs []mem.VAddr) (int, error) {
	if c.read == len(c.refs) {
		return 0, io.EOF
	}
	n := fillColumns(c.refs[c.read:], kinds, addrs)
	c.read += n
	return n, nil
}

// PID implements trace.ColumnReader.
func (c *countingReader) PID() mem.PID { return 0 }

// Next implements trace.Reader.
func (c *countingReader) Next() (mem.Ref, error) { return nextOf(c) }

// sizedReader is a countingReader that reports its length, as the
// synthetic generators do.
type sizedReader struct{ *countingReader }

// Remaining reports the references not yet read.
func (s sizedReader) Remaining() uint64 { return uint64(len(s.refs) - s.read) }

// ckptStreams is refillStreams with process 0 cut short, so that it
// has finished by the time ckptCapture captures.
func ckptStreams() [][]mem.Ref {
	streams := refillStreams()
	streams[0] = streams[0][:1000]
	return streams
}

// ckptConfig schedules ckptStreams with switch traces, quantum
// boundaries and switches on misses inside every window.
func ckptConfig(maxRefs uint64) SchedulerConfig {
	return SchedulerConfig{Quantum: 777, InsertSwitchTrace: true, Seed: 5, MaxRefs: maxRefs}
}

// counted returns one fresh counting reader per stream, reporting
// their lengths when sized is set.
func counted(streams [][]mem.Ref, sized bool) ([]trace.Reader, []*countingReader) {
	readers := make([]trace.Reader, len(streams))
	counts := make([]*countingReader, len(streams))
	for i, s := range streams {
		counts[i] = &countingReader{refs: s}
		readers[i] = counts[i]
		if sized {
			readers[i] = sizedReader{counts[i]}
		}
	}
	return readers, counts
}

// ckptCapture runs ckptStreams over refilled readers to maxRefs and
// returns the run's report and its checkpoint payload.
func ckptCapture(t testing.TB, maxRefs uint64) (*stats.Report, []byte, *Scheduler) {
	t.Helper()
	readers, _ := counted(ckptStreams(), true)
	m := testRAMpage(t, 4000, 1024, true)
	s, rep, err := runRefill(t, m, readers, ckptConfig(maxRefs))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := CaptureState(m, s)
	if err != nil {
		t.Fatal(err)
	}
	return rep, payload, s
}

// ckptRestore restores payload into a fresh machine and a scheduler
// over readers.
func ckptRestore(t *testing.T, payload []byte, readers []trace.Reader, maxRefs uint64) (Machine, *Scheduler) {
	t.Helper()
	m := testRAMpage(t, 4000, 1024, true)
	s, err := NewScheduler(m, readers, ckptConfig(maxRefs))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreState(m, s, payload); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return m, s
}

// ckptUninterrupted runs ckptStreams to the end with no checkpoint.
func ckptUninterrupted(t *testing.T) *stats.Report {
	t.Helper()
	_, rep, err := runRefill(t, testRAMpage(t, 4000, 1024, true), captured(ckptStreams()), ckptConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func totalRead(counts []*countingReader) int {
	n := 0
	for _, c := range counts {
		n += c.read
	}
	return n
}

// TestCheckpointCompleteRestoreReadsNoStream pins that restoring a
// finished run over refilled streams reads none of them, whether the
// run stopped at its budget or drained its workload and whether or not
// the streams report their length: the restored machine already holds
// the report, and nothing runs.
func TestCheckpointCompleteRestoreReadsNoStream(t *testing.T) {
	for _, maxRefs := range []uint64{20_000, 0} {
		want, payload, _ := ckptCapture(t, maxRefs)
		for _, sized := range []bool{true, false} {
			readers, counts := counted(ckptStreams(), sized)
			m, _ := ckptRestore(t, payload, readers, maxRefs)
			if n := totalRead(counts); n != 0 {
				t.Errorf("budget %d, sized %v: the restore read %d references", maxRefs, sized, n)
			}
			if got := m.Report(); !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d, sized %v: restored report differs from the captured run:\n got: %+v\nwant: %+v", maxRefs, sized, got, want)
			}
		}
	}
}

// TestCheckpointResumeReadsPrefixOnFirstRun pins the lazy skip, over
// streams that report their length and streams that do not: after a
// resumable restore no stream has been read; a process reads its
// executed prefix only when it next runs; a process that had finished
// at the capture never reads; and the resumed run reports what an
// uninterrupted run does.
func TestCheckpointResumeReadsPrefixOnFirstRun(t *testing.T) {
	const at = 20_000
	streams, want := ckptStreams(), ckptUninterrupted(t)
	_, payload, capturedAt := ckptCapture(t, at)
	if capturedAt.procs[0].state != procDone {
		t.Fatal("process 0 had not finished at the capture; the test shows nothing")
	}
	for _, sized := range []bool{true, false} {
		// One more reference: exactly one process runs, and only it reads.
		readers, counts := counted(streams, sized)
		_, s := ckptRestore(t, payload, readers, at+1)
		if n := totalRead(counts); n != 0 {
			t.Fatalf("sized %v: the restore read %d references", sized, n)
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		ran := 0
		for i, c := range counts {
			if c.read == 0 {
				continue
			}
			ran++
			if done := capturedAt.procs[i].done; uint64(c.read) <= done {
				t.Errorf("sized %v: process %d read %d references, not past its cursor %d", sized, i, c.read, done)
			}
		}
		if ran != 1 {
			t.Errorf("sized %v: %d processes read their streams for one reference, want 1", sized, ran)
		}

		// To the end: every unfinished stream is read once, in full.
		readers, counts = counted(streams, sized)
		_, s = ckptRestore(t, payload, readers, 0)
		got, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sized %v: resumed report differs from an uninterrupted run:\n got: %+v\nwant: %+v", sized, got, want)
		}
		if counts[0].read != 0 {
			t.Errorf("sized %v: process 0, finished at the capture, read %d references", sized, counts[0].read)
		}
		for i, c := range counts[1:] {
			if c.read != len(c.refs) {
				t.Errorf("sized %v: process %d read %d of its %d references", sized, i+1, c.read, len(c.refs))
			}
		}
	}
}

// TestCheckpointResumeOverShortReads resumes a run over streams that
// make short, irregular reads, so the restored prefix is discarded in
// pieces smaller than the refill window: the resumed run must still
// report what an uninterrupted run does.
func TestCheckpointResumeOverShortReads(t *testing.T) {
	want := ckptUninterrupted(t)
	_, payload, _ := ckptCapture(t, 20_000)
	_, s := ckptRestore(t, payload, choppy(ckptStreams()), 0)
	got, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed report differs from an uninterrupted run:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestCheckpointCursorPastStreamFails pins that a stream shorter than
// its cursor still fails: a synthetic generator, checked against the
// length it reports, inside RestoreState, and a stream of unknown
// length on its process's first refill, which the resumed run returns.
func TestCheckpointCursorPastStreamFails(t *testing.T) {
	gens := func(refScale float64) []trace.Reader {
		var readers []trace.Reader
		for _, p := range synth.Table2()[:3] {
			g, err := synth.NewGenerator(p, synth.Options{Seed: 42, RefScale: refScale, SizeScale: 1.0 / 16})
			if err != nil {
				t.Fatal(err)
			}
			readers = append(readers, g)
		}
		return readers
	}
	cfg := SchedulerConfig{Quantum: 2_000, MaxRefs: 30_000}
	m := testBaseline(t, 1000, 512)
	s, _, err := runRefill(t, m, gens(1.0/2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := CaptureState(m, s)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(readers []trace.Reader) error {
		m := testBaseline(t, 1000, 512)
		s, err := NewScheduler(m, readers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return RestoreState(m, s, payload)
	}
	if err := restore(gens(1.0 / 2000)); err != nil {
		t.Fatalf("restore over the captured run's generators: %v", err)
	}
	if err := restore(gens(1.0 / 200_000)); err == nil || !strings.Contains(err.Error(), "cursor") {
		t.Errorf("restore over shorter generators: err = %v, want a cursor error", err)
	}

	_, payload, capturedAt := ckptCapture(t, 20_000)
	short := ckptStreams()
	for i := 1; i < len(short); i++ {
		short[i] = short[i][:capturedAt.procs[i].done-1]
	}
	readers, _ := counted(short, false)
	_, s = ckptRestore(t, payload, readers, 0)
	if _, err := s.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cursor") {
		t.Errorf("run over short streams of unknown length: err = %v, want a cursor error", err)
	}
}

// sectionAfter returns the offset just past the first occurrence of
// marker in payload.
func sectionAfter(t *testing.T, payload []byte, marker uint32) int {
	t.Helper()
	var m [4]byte
	binary.LittleEndian.PutUint32(m[:], marker)
	at := bytes.Index(payload, m[:])
	if at < 0 {
		t.Fatalf("marker %#x not in payload", marker)
	}
	return at + 4
}

// skipSlice returns the offset past a length-prefixed slice of
// elemBytes-byte elements starting at off.
func skipSlice(payload []byte, off, elemBytes int) int {
	return off + 4 + int(binary.LittleEndian.Uint32(payload[off:]))*elemBytes
}

// TestRestoreRejectsForgedIndices forges one field at a time in a
// captured switch-on-miss payload, and requires each restore to fail:
//   - a page-table frame past the table (the anchor value a fuzzed
//     record carried, which restored cleanly and then panicked in the
//     first lookup), a frame listed twice, a frame without its valid
//     bit, and a free-list head past the table;
//   - a live TLB entry's frame past the page table (which the fused
//     loop's first store to that page would index with);
//   - a report whose cycle count disagrees with its per-level times,
//     which every field check passes and the machine's invariants
//     catch.
//
// A page listed twice among the pages faulted in restores, since the
// restore does not index those pages, and the resumed run must fail at
// its first page fault, which does.
func TestRestoreRejectsForgedIndices(t *testing.T) {
	_, payload, _ := ckptCapture(t, 20_000)
	var s *Scheduler
	restore := func(forged []byte) error {
		readers, _ := counted(ckptStreams(), true)
		m := testRAMpage(t, 4000, 1024, true)
		var err error
		if s, err = NewScheduler(m, readers, ckptConfig(0)); err != nil {
			t.Fatal(err)
		}
		return RestoreState(m, s, forged)
	}
	if err := restore(payload); err != nil {
		t.Fatalf("genuine payload: %v", err)
	}
	const entryBytes = 4 + 8 + 2 + 1 // frame, vpn, pid, flags
	table := sectionAfter(t, payload, checkpoint.MarkPageTable)
	entries := int(binary.LittleEndian.Uint32(payload[table:]))
	if entries < 2 {
		t.Fatalf("the page table holds %d chained frames", entries)
	}
	first := table + 4
	keys := sectionAfter(t, payload, checkpoint.MarkTLB)
	vpns := skipSlice(payload, keys, 8)
	frames := skipSlice(payload, vpns, 8)
	seen := skipSlice(payload, frames, 8) + 8*5 // the TLB's RNG and four counters
	if binary.LittleEndian.Uint32(payload[seen:]) < 2 {
		t.Fatal("fewer than two pages faulted in")
	}
	cycles := sectionAfter(t, payload, checkpoint.MarkReport)

	for _, tc := range []struct {
		name, want string
		forge      func(b []byte)
	}{
		{"page-table frame past the table", "pagetable: frame 2130706554", func(b []byte) {
			binary.LittleEndian.PutUint32(b[first:], 2130706554)
		}},
		{"page-table frame listed twice", "listed twice", func(b []byte) {
			copy(b[first+entryBytes:first+2*entryBytes], b[first:])
		}},
		{"page-table frame without its valid bit", "maps no page", func(b []byte) {
			b[first+entryBytes-1] = 0
		}},
		{"free-list head past the table", "free list head", func(b []byte) {
			binary.LittleEndian.PutUint32(b[first+entries*entryBytes:], 1<<30)
		}},
		{"TLB frame past the table", "tlb", func(b []byte) {
			n := int(binary.LittleEndian.Uint32(b[frames:]))
			for i := 0; ; i++ {
				if i == n {
					t.Fatal("no live TLB entry")
				}
				if binary.LittleEndian.Uint64(b[vpns+4+8*i:]) != ^uint64(0) {
					binary.LittleEndian.PutUint64(b[frames+4+8*i:], 1<<40)
					return
				}
			}
		}},
		{"cycles disagree with level times", "restored state", func(b []byte) {
			b[cycles] ^= 1
		}},
	} {
		forged := append([]byte(nil), payload...)
		tc.forge(forged)
		if err := restore(forged); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error = %v, want one naming %q", tc.name, err, tc.want)
		}
	}

	forged := append([]byte(nil), payload...)
	copy(forged[seen+4+10:seen+4+20], forged[seen+4:])
	if err := restore(forged); err != nil {
		t.Fatalf("a page faulted in twice: restore error = %v, want the run to fail instead", err)
	}
	if _, err := s.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("a page faulted in twice: run error = %v, want one naming a page listed twice", err)
	}
}

// FuzzRestoreState feeds mutations of captured payloads to
// RestoreState, which must return an error or nil and never panic or
// run out of memory: checkpoint records are read back from a directory
// that survives restarts, and anyone who can write there can forge one,
// so every count and length in a payload is untrusted. A payload that
// restores must leave a machine that passes CheckInvariants (which
// RestoreState ends with, so a restore that skipped it fails here), and
// is then run to the end of its streams, which must finish (with or
// without an error) rather than panic or hang: a restore that accepts
// state the machine cannot run from fails here. baseline selects the
// machine: a RAMpage machine that switches on misses at 4 GHz, so
// restored runs keep pages in flight across the fused paths, or the
// direct-mapped baseline, whose DRAM page table is the largest input
// to the page-table decoder.
func FuzzRestoreState(f *testing.F) {
	streams := ckptStreams()
	build := func(t testing.TB, baseline bool) Machine {
		if baseline {
			return testBaseline(t, 1000, 512)
		}
		return testRAMpage(t, 4000, 1024, true)
	}
	for _, baseline := range []bool{false, true} {
		readers, _ := counted(streams, true)
		m := build(f, baseline)
		s, _, err := runRefill(f, m, readers, ckptConfig(20_000))
		if err != nil {
			f.Fatal(err)
		}
		payload, err := CaptureState(m, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(baseline, payload)
	}
	f.Fuzz(func(t *testing.T, baseline bool, payload []byte) {
		readers, _ := counted(streams, true)
		m := build(t, baseline)
		s, err := NewScheduler(m, readers, ckptConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		if RestoreState(m, s, payload) != nil {
			return
		}
		if err := m.(Snapshotter).CheckInvariants(); err != nil {
			t.Fatalf("a restored payload breaks the machine's invariants: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := s.Run(ctx); errors.Is(err, context.DeadlineExceeded) {
			t.Fatal("the restored run did not finish")
		}
	})
}
