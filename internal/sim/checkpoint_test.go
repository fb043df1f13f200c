package sim

import (
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// countingReader serves a slice of references and counts how many
// have been read from it. It does not report its length.
type countingReader struct {
	refs []mem.Ref
	read int
}

// ReadBatch implements trace.BatchReader.
func (c *countingReader) ReadBatch(dst []mem.Ref) (int, error) {
	if c.read == len(c.refs) {
		return 0, io.EOF
	}
	n := copy(dst, c.refs[c.read:])
	c.read += n
	return n, nil
}

// Next implements trace.Reader.
func (c *countingReader) Next() (mem.Ref, error) {
	var one [1]mem.Ref
	if _, err := c.ReadBatch(one[:]); err != nil {
		return mem.Ref{}, err
	}
	return one[0], nil
}

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
func ckptCapture(t *testing.T, maxRefs uint64) (*stats.Report, []byte, *Scheduler) {
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
