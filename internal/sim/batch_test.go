package sim

import (
	"reflect"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/trace"
)

func newBatchBaseline(t *testing.T) *Baseline {
	t.Helper()
	b, err := NewBaseline(BaselineConfig{
		Params:    DefaultParams(1000),
		L2Bytes:   256 << 10,
		L2Block:   1024,
		L2Assoc:   1,
		DRAMBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newBatchRAMpage(t *testing.T) *RAMpage {
	t.Helper()
	r, err := NewRAMpage(RAMpageConfig{
		Params:    DefaultParams(1000),
		SRAMBytes: 264 << 10,
		PageBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// batchWorkload is a small user-mode reference mix: a code loop plus a
// data walk confined to a few pages, so the steady state is all TLB
// and L1 hits with occasional L1 conflict traffic at the start.
func batchWorkload(n int) []mem.Ref {
	refs := make([]mem.Ref, n)
	for i := range refs {
		switch i % 3 {
		case 0:
			refs[i] = mem.Ref{PID: 1, Kind: mem.IFetch, Addr: mem.VAddr(0x1000 + uint64(i%256)*4)}
		case 1:
			refs[i] = mem.Ref{PID: 1, Kind: mem.Load, Addr: mem.VAddr(0x4000 + uint64(i%128)*8)}
		default:
			refs[i] = mem.Ref{PID: 1, Kind: mem.Store, Addr: mem.VAddr(0x5000 + uint64(i%64)*8)}
		}
	}
	return refs
}

// TestExecBatchMatchesExec runs the same reference stream through Exec
// one at a time and through ExecBatchColumnar in deliberately unaligned
// windows, and requires bit-identical reports (the scheduler-level
// equivalence tests in internal/harness cover the blocking
// switch-on-miss path).
func TestExecBatchMatchesExec(t *testing.T) {
	refs := batchWorkload(4096)
	pid, kinds, addrs := colsOf(t, refs)
	run := func(t *testing.T, one, batch Machine) {
		t.Helper()
		for _, ref := range refs {
			if _, err := one.Exec(ref); err != nil {
				t.Fatal(err)
			}
		}
		for off := 0; off < len(refs); off += 129 {
			end := off + 129
			if end > len(refs) {
				end = len(refs)
			}
			n, block, err := batch.ExecBatchColumnar(pid, kinds[off:end], addrs[off:end])
			if err != nil || block != 0 || n != end-off {
				t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
			}
		}
		if !reflect.DeepEqual(one.Report(), batch.Report()) {
			t.Errorf("reports diverge:\nexec:  %+v\nbatch: %+v", one.Report(), batch.Report())
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t), newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t), newBatchRAMpage(t)) })
}

// colsOf splits rows into the single-PID columnar form that
// ExecBatchColumnar consumes.
func colsOf(t *testing.T, refs []mem.Ref) (mem.PID, []mem.RefKind, []mem.VAddr) {
	t.Helper()
	kinds := make([]mem.RefKind, len(refs))
	addrs := make([]mem.VAddr, len(refs))
	for i, r := range refs {
		if r.PID != refs[0].PID {
			t.Fatal("colsOf needs a single-PID stream")
		}
		kinds[i], addrs[i] = r.Kind, r.Addr
	}
	return refs[0].PID, kinds, addrs
}

// TestExecBatchColumnarZeroAllocSteadyState pins the hot path: once
// the TLB and L1 are warm, executing a batch must not allocate at all.
func TestExecBatchColumnarZeroAllocSteadyState(t *testing.T) {
	refs := batchWorkload(2048)
	pid, kinds, addrs := colsOf(t, refs)
	run := func(t *testing.T, m Machine) {
		t.Helper()
		// Warm up: fault the pages in and fill the caches.
		for i := 0; i < 4; i++ {
			if n, block, err := m.ExecBatchColumnar(pid, kinds, addrs); err != nil || block != 0 || n != len(kinds) {
				t.Fatalf("warm-up ExecBatchColumnar = %d, %d, %v", n, block, err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := m.ExecBatchColumnar(pid, kinds, addrs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state ExecBatchColumnar allocates %.1f times per batch", allocs)
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t)) })
}

// refilledProc returns a process that reads refs from a row reader
// through the scheduler's refill window, as NewScheduler builds it for
// any stream that is not captured columns.
func refilledProc(refs []mem.Ref) (*proc, *trace.SliceReader) {
	src := trace.NewSliceReader(refs)
	p := &proc{pid: refs[0].PID, src: src}
	p.col = trace.NewColumnarReader(&p.win)
	return p, src
}

// execRefilled drains p's stream, executing each refill window with
// one ExecBatchColumnar call.
func execRefilled(t *testing.T, m Machine, p *proc, rows []mem.Ref) {
	t.Helper()
	for {
		kinds, addrs := p.col.Tail()
		if len(kinds) == 0 {
			if err := p.refill(rows); err != nil {
				t.Fatal(err)
			}
			if kinds, addrs = p.col.Tail(); len(kinds) == 0 {
				return
			}
		}
		n, block, err := m.ExecBatchColumnar(p.pid, kinds, addrs)
		if err != nil || block != 0 || n != len(kinds) {
			t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
		}
		p.col.Skip(n)
	}
}

// TestExecBatchColumnarMatchesExecBatch requires captured columns
// executed in deliberately unaligned windows to produce a bit-identical
// report to the same stream read as row batches (trace.ReadBatch)
// through the refill window, whose windows fall elsewhere.
func TestExecBatchColumnarMatchesExecBatch(t *testing.T) {
	refs := batchWorkload(4096)
	pid, kinds, addrs := colsOf(t, refs)
	run := func(t *testing.T, rows, cols Machine) {
		t.Helper()
		p, _ := refilledProc(refs)
		execRefilled(t, rows, p, make([]mem.Ref, refillRefs))
		for off := 0; off < len(refs); off += 129 {
			end := off + 129
			if end > len(refs) {
				end = len(refs)
			}
			if n, block, err := cols.ExecBatchColumnar(pid, kinds[off:end], addrs[off:end]); err != nil || block != 0 || n != end-off {
				t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
			}
		}
		if !reflect.DeepEqual(rows.Report(), cols.Report()) {
			t.Errorf("reports diverge:\nrows: %+v\ncols: %+v", rows.Report(), cols.Report())
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t), newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t), newBatchRAMpage(t)) })
}

// TestExecBatchZeroAllocSteadyState pins the refill path: once the TLB
// and L1 are warm, reading a row stream through the refill window and
// executing its windows must not allocate at all.
func TestExecBatchZeroAllocSteadyState(t *testing.T) {
	refs := batchWorkload(2048)
	run := func(t *testing.T, m Machine) {
		t.Helper()
		p, src := refilledProc(refs)
		rows := make([]mem.Ref, refillRefs)
		replay := func() {
			src.Reset()
			p.rdErr = nil
			execRefilled(t, m, p, rows)
		}
		// Warm up: fault the pages in, fill the caches and the window.
		for i := 0; i < 4; i++ {
			replay()
		}
		if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
			t.Errorf("steady-state refilled stream allocates %.1f times per pass", allocs)
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t)) })
}
