package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rampage/internal/checkpoint"
	"rampage/internal/mem"
	"rampage/internal/stats"
	"rampage/internal/synth"
)

// stateBytes is the machine's checkpoint payload.
func stateBytes(m Snapshotter) []byte {
	e := checkpoint.NewEnc()
	m.EncodeState(e)
	return e.Bytes()
}

// perReference switches a machine's fused views off, as a
// set-associative L1 does: every reference then runs execOne, the
// reference for the fused paths.
func perReference(m *RAMpage) *RAMpage {
	m.dm = false
	return m
}

// TestFusedRunsUnpinOnArrival drives two switch-on-miss machines the
// same way, one on the per-reference path and one on the fused paths:
// a user reference faults and blocks, then a kernel trace runs across
// the page's arrival; another reference faults, and a window of TLB
// and L1 hits runs across that arrival. Then a kernel trace and a user
// window each end just past an arrival, pushed past it by an L1 miss.
// The checkpoint bytes must agree after every step. The per-reference
// path unpins a page before the first reference that starts at or
// after its arrival, so a fused run that let the unpin wait for its
// next fallback, or ran on past the arrival to its end, would leave
// the page pinned and in flight.
func TestFusedRunsUnpinOnArrival(t *testing.T) {
	for _, page := range []uint64{128, 1024} {
		t.Run(fmt.Sprintf("%dB", page), func(t *testing.T) {
			fused, perRef := testRAMpage(t, 1000, page, true), perReference(testRAMpage(t, 1000, page, true))
			step := func(what string, run func(m *RAMpage) error) {
				t.Helper()
				for _, m := range []*RAMpage{fused, perRef} {
					if err := run(m); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				if !bytes.Equal(stateBytes(fused), stateBytes(perRef)) {
					t.Fatalf("%s: checkpoint bytes differ; in flight: fused %d, per-reference %d",
						what, len(fused.inFlight), len(perRef.inFlight))
				}
			}
			block := func(ref mem.Ref) func(m *RAMpage) error {
				return func(m *RAMpage) error {
					until, err := m.Exec(ref)
					if err == nil && until == 0 {
						err = fmt.Errorf("%v did not block", ref)
					}
					return err
				}
			}
			code := uref(1, mem.IFetch, 0x40000)
			step("fault on the code page", block(code))
			arrived := fused.Now() + 100_000
			step("wait for it", func(m *RAMpage) error { m.AdvanceTo(arrived); return nil })
			step("fetch it", func(m *RAMpage) error { _, err := m.Exec(code); return err })
			step("fault on a data page", block(uref(1, mem.Load, 0x80000)))

			// 20,000 kernel IFetches over a few L1 blocks: one cycle each,
			// far longer than the page transfer.
			trace := make([]mem.Ref, 20_000)
			for i := range trace {
				trace[i] = kref(mem.IFetch, uint64(i%64)*4)
			}
			step("kernel trace across the arrival", func(m *RAMpage) error { return m.ExecTrace(trace, ClassSwitch) })
			if len(fused.inFlight) != 0 {
				t.Fatalf("%d pages still in flight after the trace; it does not span the arrival", len(fused.inFlight))
			}

			step("fault on another data page", block(uref(1, mem.Load, 0xC0000)))
			kinds := make([]mem.RefKind, 20_000)
			addrs := make([]mem.VAddr, len(kinds))
			for i := range kinds {
				kinds[i], addrs[i] = mem.IFetch, code.Addr+mem.VAddr(i%8)*4
			}
			step("window of hits across the arrival", func(m *RAMpage) error {
				n, until, err := m.ExecBatchColumnar(1, kinds, addrs, 0)
				if err == nil && (n != len(kinds) || until != 0) {
					err = fmt.Errorf("ExecBatchColumnar = %d, %d", n, until)
				}
				return err
			})
			if len(fused.inFlight) != 0 {
				t.Fatalf("%d pages still in flight after the window; it does not span the arrival", len(fused.inFlight))
			}

			// Each run below is one reference shorter than the cycles left
			// before the page lands, so the fused path sizes it to run
			// whole; its first reference misses in L1, which pushes the
			// clock past the arrival before the run ends.
			justPast := func(what string, run func(m *RAMpage, n int) error) {
				t.Helper()
				n := int(fused.inFlight[0].ready-fused.Now()) - 1
				misses := fused.rep.L1IMisses
				step(what, func(m *RAMpage) error { return run(m, n) })
				if fused.rep.L1IMisses == misses || len(fused.inFlight) != 0 {
					t.Fatalf("%s: %d L1i misses, %d pages in flight; the run does not end past the arrival",
						what, fused.rep.L1IMisses-misses, len(fused.inFlight))
				}
			}
			step("fault on a fourth data page", block(uref(1, mem.Load, 0x100000)))
			justPast("kernel trace that ends past the arrival", func(m *RAMpage, n int) error {
				trace := make([]mem.Ref, n)
				for i := range trace {
					trace[i] = kref(mem.IFetch, synth.KernelFixedBytes-32+uint64(i%8)*4)
				}
				return m.ExecTrace(trace, ClassSwitch)
			})
			step("fault on a fifth data page", block(uref(1, mem.Load, 0x140000)))
			justPast("window that ends past the arrival", func(m *RAMpage, n int) error {
				kinds, addrs := make([]mem.RefKind, n), make([]mem.VAddr, n)
				for i := range kinds {
					kinds[i], addrs[i] = mem.IFetch, code.Addr+32+mem.VAddr(i%8)*4
				}
				consumed, until, err := m.ExecBatchColumnar(1, kinds, addrs, 0)
				if err == nil && (consumed != n || until != 0) {
					err = fmt.Errorf("ExecBatchColumnar = %d, %d", consumed, until)
				}
				return err
			})
		})
	}
}

// deadlineStreams is a switch-on-miss workload whose fill-ins run long
// enough to be preempted mid-window: process 0 touches a new page every
// 32 references, and processes 1 and 2 loop over two data pages, so
// after their first faults they hit for as long as they run.
func deadlineStreams() [][]mem.Ref {
	streams := make([][]mem.Ref, 3)
	for p := range streams {
		base := uint64(0x1000000 * (p + 1))
		for i := 0; i < 8000; i++ {
			data := base + uint64(i%256)*8
			if p == 0 {
				data = base + uint64(i)*64
			}
			streams[p] = append(streams[p],
				mem.Ref{Kind: mem.IFetch, Addr: mem.VAddr(0x400000 + uint64(i*4)%512)},
				mem.Ref{Kind: mem.Load, Addr: mem.VAddr(data)})
		}
	}
	return streams
}

// TestSchedulerDeadlinesMatchPerReferenceRun runs deadlineStreams to a
// spread of budgets twice: on the fused paths, where whole windows run
// up to the earliest page arrival, and on the per-reference path, where
// the machine checks the deadline before every reference. The reports
// and the checkpoint payloads must be identical at every budget, so a
// fused run that runs past an arrival, or an unpin that lands late,
// shows up at the budget that cuts it.
func TestSchedulerDeadlinesMatchPerReferenceRun(t *testing.T) {
	streams := deadlineStreams()
	cfg := SchedulerConfig{Quantum: 5000, InsertSwitchTrace: true, Seed: 5}
	for budget := uint64(701); budget <= 3*16000; budget += 1999 {
		cfg.MaxRefs = budget
		var reps [2]*stats.Report
		var payloads [2][]byte
		for i, m := range []*RAMpage{testRAMpage(t, 1000, 1024, true), perReference(testRAMpage(t, 1000, 1024, true))} {
			s, rep, err := runRefill(t, m, captured(streams), cfg)
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = rep
			if payloads[i], err = CaptureState(m, s); err != nil {
				t.Fatal(err)
			}
		}
		if reps[0].SwitchesOnMiss == 0 {
			t.Fatalf("budget %d: no switch on a miss", budget)
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Fatalf("budget %d: reports differ:\n fused:         %+v\n per-reference: %+v", budget, reps[0], reps[1])
		}
		if !bytes.Equal(payloads[0], payloads[1]) {
			t.Fatalf("budget %d: checkpoint payloads differ", budget)
		}
	}
}
