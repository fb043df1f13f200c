package sim

import (
	"errors"

	"rampage/internal/cache"
	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/pagetable"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/tlb"
)

// This file holds the front end both machines share (§4.3 gives each
// the same split L1s and TLB; they differ only below L1) and the one
// fused TLB→L1 path over it. A fused run collapses the batched
// executors' common case — a user reference whose translation is in
// the TLB, or a handler reference to the identity-mapped kernel region,
// whose block is in a direct-mapped L1 — into a single branch-
// predictable loop over flattened columnar views (tlb.Hot, cache.DMHot
// and, on RAMpage, the SRAM page table's dirty column). An L1 miss is
// completed inside the run by the machine's missL1; every reference
// the run does not finish runs the machine's execOne, the code Exec
// runs. Each machine supplies only what differs, through fusedMachine.
// Statistics for fused references accumulate in run-local counters and
// are flushed before any call into the machine, so every observable
// value (reports, level times, cache/TLB/core counters) is bit-
// identical to repeated Exec calls.
//
// Observed and verified runs take the same path. The one observer
// event a fused reference raises, EvTLBHit, is flushed with the run
// counters and delivered as a single count when the run returns
// (observeTLBHits); misses, faults and transfers reach the observer
// through the machine, as on the per-reference path. Every reference
// runs execOne only where the fused views cannot serve it: a
// set-associative L1, a kernel-PID window, or a prefetched page in
// flight.
//
// A fused run never looks at the clock per reference. Where it must
// stop at a cycle — the caller's deadline, or the next in-flight page
// arrival, where the per-reference path would unpin the page — the
// run is sized by runLimit: a fused reference advances the clock by at
// most one cycle (an IFetch hit charges one, a data hit none), so a
// run of limit−Now() references cannot start one at or past limit.
// Fallbacks charge more, so after each one overrun decides whether the
// rest of the run still fits; if not, the run returns and its loop
// re-derives the next run from the clock.
//
// The runs hoist every view field — slice headers and shift scalars —
// into locals before entering, and flush takes the run counters by
// value. Both keep the hot state in registers: the in-loop stores
// (filter repair, dirty bits) would otherwise defeat alias analysis and
// force per-iteration reloads, and a flush closure would pin the
// counters to addressable stack slots.

// fusedMachine is what a machine supplies to the shared loops.
type fusedMachine interface {
	// missL1 completes a reference whose fused L1 probe missed: the
	// fetch charge and the fill from the level below, without probing
	// the L1 again. The probe's miss is exact: a real tag equals
	// cache.TagInvalid only at a physical address with every bit set,
	// far past either machine's memory.
	missL1(kind mem.RefKind, pa mem.PAddr)
	// execOne runs one reference on the per-reference path. A non-zero
	// return is the cycle its page arrives: it did not execute.
	execOne(ref mem.Ref, class RefClass) (mem.Cycles, error)
	// arrivals unpins the pages whose transfers have landed and returns
	// the next arrival, 0 when no transfer is in flight.
	arrivals() mem.Cycles
	// prefetchPending reports whether a prefetched page is in flight: a
	// demand access to it can stall mid-run, which a fused run does not
	// model.
	prefetchPending() bool
}

// frontEnd is the part of a machine both designs share: the split L1,
// the report and the observer, and the fused path's views. The L1 and
// TLB views alias live columns that are never reallocated, so they stay
// current; RAMpage rebuilds its TLB and page-table views whenever it
// installs a new SRAM main memory (setMemory).
type frontEnd struct {
	l1  l1pair
	rep stats.Report
	obs metrics.Observer // nil unless probing is attached
	// obsTLBHits counts the TLB hits the fused runs have flushed but not
	// yet delivered to obs (tlb.Lookup counts the per-reference path's).
	obsTLBHits uint64

	dm       bool // both L1 sides are direct-mapped: the fused runs may run
	l1i, l1d cache.DMHot
	tlbHot   tlb.Hot
	// kernelBytes bounds the identity-mapped kernel region: an address
	// in [KernelBase, KernelBase+kernelBytes) translates to its offset.
	kernelBytes uint64
	// RAMpage's SRAM page-table flags, indexed by physical address
	// >> ptShift, and its core translation counter; nil on the baseline.
	ptFlags      []uint8
	ptShift      uint
	translations *uint64
}

// newFrontEnd builds the split L1 of p and its fused-path views.
func newFrontEnd(p Params) (frontEnd, error) {
	l1, err := newL1Pair(p)
	if err != nil {
		return frontEnd{}, err
	}
	ih, iok := l1.inst.DirectHot()
	dh, dok := l1.data.DirectHot()
	return frontEnd{l1: l1, dm: iok && dok, l1i: ih, l1d: dh}, nil
}

// Report implements Machine.
func (f *frontEnd) Report() *stats.Report { return &f.rep }

// Now implements Machine.
func (f *frontEnd) Now() mem.Cycles { return f.rep.Cycles }

// AdvanceTo implements Machine.
func (f *frontEnd) AdvanceTo(t mem.Cycles) {
	if t > f.rep.Cycles {
		idle := t - f.rep.Cycles
		f.rep.IdleCycles += idle
		f.rep.Charge(stats.DRAM, idle)
	}
}

// chargeFetch charges an instruction fetch's one L1i cycle, hit or
// miss: only instruction fetches add to run time on an L1 hit (§4.3).
func (f *frontEnd) chargeFetch(kind mem.RefKind) {
	if kind == mem.IFetch {
		f.rep.Charge(stats.L1I, 1)
	}
}

var errPinnedFault = errors.New("sim: pinned OS reference faulted")

// execBatch is both machines' ExecBatchColumnar. While the fused path
// is on and no prefetch is pending, the window runs in fused runs sized
// against the deadline and the next page arrival, after the pages that
// have landed are unpinned; otherwise each reference runs execOne,
// which unpins them itself. A blocking reference stops the batch
// unconsumed, exactly like Exec.
func (f *frontEnd) execBatch(m fusedMachine, pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	fused := f.dm && pid != mem.KernelPID
	for i := 0; i < len(kinds); {
		if i > 0 && until != 0 && f.rep.Cycles >= until {
			return i, 0, nil
		}
		if fused {
			next := m.arrivals()
			if !m.prefetchPending() {
				limit := earlier(until, next)
				end := i + runLimit(len(kinds)-i, f.rep.Cycles, limit)
				n, block, err := f.runUser(m, pid, kinds[i:end], addrs[i:end], limit)
				f.observeTLBHits()
				i += n
				if err != nil || block != 0 {
					return i, block, err
				}
				continue
			}
		}
		block, err := m.execOne(mem.Ref{PID: pid, Kind: kinds[i], Addr: addrs[i]}, ClassBench)
		if err != nil || block != 0 {
			return i, block, err
		}
		i++
	}
	return len(kinds), 0, nil
}

// execTrace is both machines' ExecTrace: execBatch's loop for a handler
// trace, which has no deadline. Operating-system references are pinned
// (§4.6), so a reference that blocks is an error.
func (f *frontEnd) execTrace(m fusedMachine, refs []mem.Ref, class RefClass) error {
	fused := f.dm
	for i := 0; i < len(refs); {
		if fused {
			next := m.arrivals()
			if !m.prefetchPending() {
				end := i + runLimit(len(refs)-i, f.rep.Cycles, next)
				n, err := f.runTrace(m, refs[i:end], class, next)
				i += n
				if err != nil {
					return err
				}
				continue
			}
		}
		if block, err := m.execOne(refs[i], class); err != nil {
			return err
		} else if block != 0 {
			return errPinnedFault
		}
		i++
	}
	return nil
}

// tlbScan is the set-scan half of the tlb.Hot lookup contract, taken
// when the inline filter probe misses: the same two-compare match as
// the TLB's own lookup (the key packs the low 16 PID bits; a full-
// width vpn match forces the rest), repairing the filter on a hit. A
// miss here is a true TLB miss with no state touched.
func tlbScan(h *tlb.Hot, key, vpn, fidx, addr uint64) (pa uint64, hit bool) {
	base := (vpn & h.SetMask) * h.Assoc
	keys := h.Keys[base : base+h.Assoc]
	for i := range keys {
		if keys[i] == key && h.VPNs[base+uint64(i)] == vpn {
			h.Filter[fidx] = int32(base + uint64(i))
			return h.Frames[base+uint64(i)]<<h.PageShift | addr&h.OffMask, true
		}
	}
	return 0, false
}

// runUser is the fused run over a user window. The window's single PID
// hoists both the kernel check and the key/filter PID terms out of the
// loop, and each iteration loads 9 bytes of column entries. The caller
// sizes the window with runLimit against limit (0 = none); the run
// returns short when a reference blocks or errors, when a fallback
// overran limit, or when a fallback left a prefetch pending.
func (f *frontEnd) runUser(m fusedMachine, pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, limit mem.Cycles) (int, mem.Cycles, error) {
	th := &f.tlbHot
	keys, vpns, frames, filter := th.Keys, th.VPNs, th.Frames, th.Filter
	pageShift, offMask := th.PageShift, th.OffMask
	ptFlags, ptShift := f.ptFlags, f.ptShift
	iTags, iBlockShift, iSetMask, iSetShift := f.l1i.Tags, f.l1i.BlockShift, f.l1i.SetMask, f.l1i.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := f.l1d.Tags, f.l1d.BlockShift, f.l1d.SetMask, f.l1d.SetShift
	dDirty := f.l1d.Dirty
	pidTerm := uint64(pid)
	addrs = addrs[:len(kinds)]
	benchRefs := &f.rep.BenchRefs
	var tlbHits, l1iHits, l1dHits uint64
	for i := range kinds {
		kind, addr := kinds[i], uint64(addrs[i])
		vpn := addr >> pageShift
		key := tlb.PackKey(pid, vpn)
		fidx := (vpn ^ pidTerm) & tlb.FilterMask
		fi := uint64(filter[fidx])
		var pa uint64
		hit := keys[fi] == key && vpns[fi] == vpn
		if hit {
			pa = frames[fi]<<pageShift | addr&offMask
		} else {
			pa, hit = tlbScan(th, key, vpn, fidx, addr)
		}
		if hit {
			tlbHits++
			if kind == mem.IFetch {
				block := pa >> iBlockShift
				set := block & iSetMask
				if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
					l1iHits++
					continue
				}
			} else {
				if kind == mem.Store && ptFlags != nil {
					ptFlags[pa>>ptShift] |= pagetable.FlagDirty
				}
				block := pa >> dBlockShift
				set := block & dSetMask
				if tag := block >> dSetShift; dTags[set] == tag && tag != cache.TagInvalid {
					l1dHits++
					if kind == mem.Store {
						dDirty[set] = true
					}
					continue
				}
			}
			f.flush(benchRefs, tlbHits, tlbHits, l1iHits, l1dHits)
			tlbHits, l1iHits, l1dHits = 0, 0, 0
			m.missL1(kind, mem.PAddr(pa))
		} else {
			// True TLB miss: the per-reference miss machinery. A fault
			// that starts a transfer either blocks (switch-on-miss) or
			// leaves a prefetch pending; both end the run.
			f.flush(benchRefs, tlbHits, tlbHits, l1iHits, l1dHits)
			tlbHits, l1iHits, l1dHits = 0, 0, 0
			block, err := m.execOne(mem.Ref{PID: pid, Kind: kind, Addr: addrs[i]}, ClassBench)
			if err != nil || block != 0 {
				return i, block, err
			}
			if m.prefetchPending() {
				return i + 1, 0, nil
			}
		}
		if overrun(f.rep.Cycles, limit, len(kinds)-i-1) {
			return i + 1, 0, nil
		}
	}
	f.flush(benchRefs, tlbHits, tlbHits, l1iHits, l1dHits)
	return len(kinds), 0, nil
}

// runTrace is the fused run over a handler trace, which is (almost)
// entirely kernel-tagged: translation is an identity bounds check, so
// only the L1 probe remains. The caller sizes the trace with runLimit
// against limit (0 = none); the run returns the count consumed, short
// when a fallback overran limit or left a prefetch pending.
func (f *frontEnd) runTrace(m fusedMachine, refs []mem.Ref, class RefClass, limit mem.Cycles) (int, error) {
	ptFlags, ptShift := f.ptFlags, f.ptShift
	iTags, iBlockShift, iSetMask, iSetShift := f.l1i.Tags, f.l1i.BlockShift, f.l1i.SetMask, f.l1i.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := f.l1d.Tags, f.l1d.BlockShift, f.l1d.SetMask, f.l1d.SetShift
	dDirty := f.l1d.Dirty
	kernelBytes := f.kernelBytes
	classCounter := classRefs(&f.rep, class)
	var count, l1iHits, l1dHits uint64
	for i := range refs {
		ref := refs[i]
		if off := uint64(ref.Addr) - synth.KernelBase; ref.PID == mem.KernelPID && uint64(ref.Addr) >= synth.KernelBase && off < kernelBytes {
			count++
			if ref.Kind == mem.IFetch {
				block := off >> iBlockShift
				set := block & iSetMask
				if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
					l1iHits++
					continue
				}
			} else {
				if ref.Kind == mem.Store && ptFlags != nil {
					ptFlags[off>>ptShift] |= pagetable.FlagDirty
				}
				block := off >> dBlockShift
				set := block & dSetMask
				if tag := block >> dSetShift; dTags[set] == tag && tag != cache.TagInvalid {
					l1dHits++
					if ref.Kind == mem.Store {
						dDirty[set] = true
					}
					continue
				}
			}
			f.flush(classCounter, count, 0, l1iHits, l1dHits)
			count, l1iHits, l1dHits = 0, 0, 0
			m.missL1(ref.Kind, mem.PAddr(off))
		} else {
			// A user reference or an out-of-range kernel address: the
			// per-reference path, which also produces the exact error
			// text. A prefetch it starts leaves a page pending.
			f.flush(classCounter, count, 0, l1iHits, l1dHits)
			count, l1iHits, l1dHits = 0, 0, 0
			block, err := m.execOne(ref, class)
			if err != nil {
				return i, err
			}
			if block != 0 {
				return i, errPinnedFault
			}
			if m.prefetchPending() {
				return i + 1, nil
			}
		}
		if overrun(f.rep.Cycles, limit, len(refs)-i-1) {
			return i + 1, nil
		}
	}
	f.flush(classCounter, count, 0, l1iHits, l1dHits)
	return len(refs), nil
}

// flush settles a run's local counters into the machine's observable
// statistics: n references added to refs, their class's report counter
// (classRefs), tlbHits of them user TLB hits (a kernel translation
// counts as a core translation but not a TLB hit), and the L1 hits of
// each side, each L1i hit charging its one-cycle fetch. The TLB hits
// also wait in obsTLBHits for observeTLBHits. The runs resolve refs
// once, outside the loop, and the observer call waits for the run's
// end; both keep flush small enough to inline at every call.
func (f *frontEnd) flush(refs *uint64, n, tlbHits, l1iHits, l1dHits uint64) {
	*refs += n
	f.rep.TLBHits += tlbHits
	f.tlbHot.Stats.Hits += tlbHits
	f.obsTLBHits += tlbHits
	if f.translations != nil {
		*f.translations += n
	}
	f.rep.Charge(stats.L1I, mem.Cycles(l1iHits))
	f.l1i.Stats.Hits += l1iHits
	f.l1d.Stats.Hits += l1dHits
}

// observeTLBHits delivers the TLB hits the fused runs flushed since its
// last call to the observer, as one EvTLBHit count: the per-reference
// path's tlb.Lookup counts one per hit.
func (f *frontEnd) observeTLBHits() {
	if f.obs != nil && f.obsTLBHits != 0 {
		f.obs.Count(metrics.EvTLBHit, f.obsTLBHits)
	}
	f.obsTLBHits = 0
}

// classRefs returns the report counter of class's executed references.
// RefClass has four values; any other is a bug.
func classRefs(rep *stats.Report, class RefClass) *uint64 {
	switch class {
	case ClassBench:
		return &rep.BenchRefs
	case ClassTLB:
		return &rep.OSTLBRefs
	case ClassFault:
		return &rep.OSFaultRefs
	case ClassSwitch:
		return &rep.OSSwitchRefs
	}
	panic("sim: unknown reference class")
}

// runLimit returns how many of the next n references a fused run may
// execute without looking at the clock, which reads now: all of them
// when limit is 0 (no bound), otherwise one per cycle left before
// limit, and at least one — the caller has already decided that the
// next reference runs.
func runLimit(n int, now, limit mem.Cycles) int {
	if limit == 0 {
		return n
	}
	if limit <= now {
		return 1
	}
	if left := limit - now; left < mem.Cycles(n) {
		return int(left)
	}
	return n
}

// overrun reports whether a fused run must return after a fallback
// left the clock at now: limit has been reached, or fewer cycles remain
// before it than the left references still ahead in the run.
func overrun(now, limit mem.Cycles, left int) bool {
	return limit != 0 && (now >= limit || limit-now < mem.Cycles(left))
}

// earlier returns the earlier of two cycle bounds, where 0 means none.
func earlier(a, b mem.Cycles) mem.Cycles {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// Release returns pooled resources — the inverted page table's arena
// slabs — for reuse by the next machine with the same geometry. The
// machine must not execute references afterwards; its report remains
// readable.
func (b *Baseline) Release() { b.pt.Recycle() }

// Release returns pooled resources (see Baseline.Release).
func (r *RAMpage) Release() { r.mm.Recycle() }
