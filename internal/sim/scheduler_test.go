package sim

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/trace"
)

// choppyReader serves a stream in short column batches of irregular
// length and ends with err, delivered together with the final batch.
type choppyReader struct {
	refs  []mem.Ref
	pos   int
	calls int
	err   error
}

// ReadColumns implements trace.ColumnReader.
func (c *choppyReader) ReadColumns(kinds []mem.RefKind, addrs []mem.VAddr) (int, error) {
	if c.pos == len(c.refs) {
		return 0, c.err
	}
	c.calls++
	n := 1 + c.calls*37%61
	n = fillColumns(c.refs[c.pos:min(len(c.refs), c.pos+n)], kinds, addrs)
	c.pos += n
	if c.pos == len(c.refs) {
		return n, c.err
	}
	return n, nil
}

// PID implements trace.ColumnReader.
func (c *choppyReader) PID() mem.PID { return 0 }

// Next implements trace.Reader.
func (c *choppyReader) Next() (mem.Ref, error) { return nextOf(c) }

// fillColumns copies as many of refs as the columns hold into them and
// returns how many it copied.
func fillColumns(refs []mem.Ref, kinds []mem.RefKind, addrs []mem.VAddr) int {
	n := min(len(refs), len(kinds))
	for i, ref := range refs[:n] {
		kinds[i], addrs[i] = ref.Kind, ref.Addr
	}
	return n
}

// nextOf is Next for a test ColumnReader: a one-reference column read.
func nextOf(r trace.ColumnReader) (mem.Ref, error) {
	var kind [1]mem.RefKind
	var addr [1]mem.VAddr
	if n, err := r.ReadColumns(kind[:], addr[:]); n == 0 {
		return mem.Ref{}, err
	}
	return mem.Ref{PID: r.PID(), Kind: kind[0], Addr: addr[0]}, nil
}

// refillStreams is a switch-on-miss workload: four processes stream
// through their own regions, faulting a page every 128 data references.
func refillStreams() [][]mem.Ref {
	streams := make([][]mem.Ref, 4)
	for p := range streams {
		base := uint64(0x1000000 * (p + 1))
		for i := 0; i < 6000; i++ {
			streams[p] = append(streams[p],
				mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%512)},
				mem.Ref{Kind: mem.Load, Addr: mem.VAddr(base + uint64(i)*8)})
		}
	}
	return streams
}

func captured(streams [][]mem.Ref) []trace.Reader {
	readers := make([]trace.Reader, len(streams))
	for i, s := range streams {
		buf := &trace.ColumnarBuffer{}
		for _, ref := range s {
			buf.Append(ref.Kind, ref.Addr)
		}
		readers[i] = trace.NewColumnarReader(buf)
	}
	return readers
}

func choppy(streams [][]mem.Ref) []trace.Reader {
	readers := make([]trace.Reader, len(streams))
	for i, s := range streams {
		readers[i] = &choppyReader{refs: s, err: io.EOF}
	}
	return readers
}

func runRefill(t testing.TB, m Machine, readers []trace.Reader, cfg SchedulerConfig) (*Scheduler, *stats.Report, error) {
	t.Helper()
	s, err := NewScheduler(m, readers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	return s, rep, err
}

// TestRefillWindowMatchesCapturedColumns feeds the same streams through
// readers that return short, irregular batches and as captured columns:
// the refill window must be invisible in the report, with quantum
// boundaries, faults and switch traces all landing inside windows.
func TestRefillWindowMatchesCapturedColumns(t *testing.T) {
	streams := refillStreams()
	cfg := SchedulerConfig{Quantum: 777, InsertSwitchTrace: true, Seed: 5}
	for name, build := range map[string]func() Machine{
		"baseline":   func() Machine { return testBaseline(t, 4000, 512) },
		"rampage-cs": func() Machine { return testRAMpage(t, 4000, 1024, true) },
	} {
		t.Run(name, func(t *testing.T) {
			_, want, err := runRefill(t, build(), captured(streams), cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := runRefill(t, build(), choppy(streams), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("refilled report differs from captured:\n got: %+v\nwant: %+v", got, want)
			}
			if want.SwitchesOnMiss == 0 && name == "rampage-cs" {
				t.Error("workload never switched on a miss")
			}
		})
	}
}

// TestRefillWindowStreamError cuts one stream short with a non-EOF
// error, delivered together with its last irregular batch. Every
// reference read before the error must execute, Run must then return
// the error, and the report at that point must equal a run over the
// same streams as captured columns stopped after as many references.
func TestRefillWindowStreamError(t *testing.T) {
	errBoom := errors.New("disk read failed")
	streams := refillStreams()
	const cut = 5003
	cfg := SchedulerConfig{Quantum: 777, InsertSwitchTrace: true, Seed: 5}

	readers := choppy(streams)
	readers[1] = &choppyReader{refs: streams[1][:cut], err: errBoom}
	s, got, err := runRefill(t, testRAMpage(t, 4000, 1024, true), readers, cfg)
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run error = %v, want the stream's error", err)
	}
	if done := s.procs[1].done; done != cut {
		t.Errorf("executed %d of the %d references read before the error", done, cut)
	}
	if s.Executed() <= cut {
		t.Fatalf("only %d references executed; the other processes never ran", s.Executed())
	}

	cut1 := append([][]mem.Ref(nil), streams...)
	cut1[1] = streams[1][:cut]
	cfg.MaxRefs = s.Executed()
	_, want, err := runRefill(t, testRAMpage(t, 4000, 1024, true), captured(cut1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report at the stream error differs from the captured run:\n got: %+v\nwant: %+v", got, want)
	}
}
