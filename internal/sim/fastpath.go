package sim

import (
	"fmt"

	"rampage/internal/cache"
	"rampage/internal/core"
	"rampage/internal/mem"
	"rampage/internal/pagetable"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/tlb"
)

// This file holds the fused TLB→L1 fast paths: the batched executors'
// common case — a user reference whose translation is in the TLB and
// whose block is in a direct-mapped L1 — collapsed into a single
// branch-predictable loop over flattened columnar views (tlb.Hot,
// cache.DMHot, core.Hot). Statistics for fast references accumulate in
// batch-local counters and are flushed before any fallback, so every
// observable value (reports, level times, cache/TLB/core counters) is
// bit-identical to the per-reference path. The fast paths are gated on
// obs == nil: with probes attached the per-event observer streams must
// stay intact, so the machines run the exact per-reference code.
//
// A fused run never looks at the clock per reference. Where it must
// stop at a cycle — the caller's deadline, or the next in-flight page
// arrival, where the per-reference path would unpin the page — the
// run is sized by runLimit: a fast reference advances the clock by at
// most one cycle (an IFetch hit charges one, a data hit none), so a
// run of limit−Now() references cannot start one at or past limit.
// Fallbacks charge more, so after each one overrun decides whether the
// rest of the run still fits; if not, the run returns and its caller
// re-derives the next run from the clock.
//
// The loops hoist every Hot-view field — slice headers and shift
// scalars — into locals before entering, and the flush helpers take the
// batch counters by value. Both keep the hot state in registers: the
// in-loop stores (filter repair, dirty bits) would otherwise defeat
// alias analysis and force per-iteration reloads, and a flush closure
// would pin the counters to addressable stack slots.

// fastL1 captures the direct-mapped L1 views once at construction; the
// slices alias the caches' live columns and stay current for the
// machine's lifetime.
type fastL1 struct {
	ok       bool
	l1i, l1d cache.DMHot
}

func newFastL1(l1 l1pair) fastL1 {
	ih, iok := l1.inst.DirectHot()
	dh, dok := l1.data.DirectHot()
	if !iok || !dok {
		return fastL1{}
	}
	return fastL1{ok: true, l1i: ih, l1d: dh}
}

// tlbScan is the set-scan half of the tlb.Hot lookup contract, taken
// when the inline filter probe misses: the same two-compare match as
// the TLB's own lookup (the key packs the low 16 PID bits; a full-
// width vpn match forces the rest), repairing the filter on a hit. A
// miss here is a true TLB miss with no state touched. Kept out of line
// so the batch loops' common case — a filter hit — stays small enough
// to inline.
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

// countRefs is countRef, n references at a time.
func countRefs(rep *stats.Report, class RefClass, n uint64) {
	switch class {
	case ClassBench:
		rep.BenchRefs += n
	case ClassTLB:
		rep.OSTLBRefs += n
	case ClassFault:
		rep.OSFaultRefs += n
	case ClassSwitch:
		rep.OSSwitchRefs += n
	}
}

// flushFast settles the batch-local fast-path counters into the
// machine's observable statistics. Taking them by value keeps the
// loop's accumulators in registers.
func (b *Baseline) flushFast(tlbHits, l1iHits, l1dHits, ifetches uint64) {
	b.rep.TLBHits += tlbHits
	b.rep.BenchRefs += tlbHits
	b.fastTLB.Stats.Hits += tlbHits
	b.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	b.fast.l1i.Stats.Hits += l1iHits
	b.fast.l1d.Stats.Hits += l1dHits
}

// flushTraceFast is flushFast for handler-trace references, which count
// against the handler class instead of TLBHits/BenchRefs.
func (b *Baseline) flushTraceFast(class RefClass, count, l1iHits, l1dHits, ifetches uint64) {
	countRefs(&b.rep, class, count)
	b.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	b.fast.l1i.Stats.Hits += l1iHits
	b.fast.l1d.Stats.Hits += l1dHits
}

// execTraceFast is Baseline.ExecTrace's fused loop for handler traces,
// which are (almost) entirely kernel-tagged: translation is an identity
// bounds check, so only the L1 probe remains.
func (b *Baseline) execTraceFast(refs []mem.Ref, class RefClass) error {
	ih, dh := &b.fast.l1i, &b.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	kernelBytes := b.kernelBytes
	var count, l1iHits, l1dHits, ifetches uint64
	for i := range refs {
		ref := refs[i]
		if ref.PID == mem.KernelPID {
			off := uint64(ref.Addr) - synth.KernelBase
			if uint64(ref.Addr) >= synth.KernelBase && off < kernelBytes {
				count++
				if ref.Kind == mem.IFetch {
					block := off >> iBlockShift
					set := block & iSetMask
					if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
						ifetches++
						l1iHits++
						continue
					}
				} else {
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
				b.flushTraceFast(class, count, l1iHits, l1dHits, ifetches)
				count, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
				b.accessL1(ref.Kind, mem.PAddr(off))
				continue
			}
		}
		// User reference or out-of-range kernel address: the per-
		// reference path (which also produces the exact error text).
		b.flushTraceFast(class, count, l1iHits, l1dHits, ifetches)
		count, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
		if err := b.execOne(ref, class); err != nil {
			return err
		}
	}
	b.flushTraceFast(class, count, l1iHits, l1dHits, ifetches)
	return nil
}

// flushFast settles the batch-local fast-path counters (see
// Baseline.flushFast); mh is the core.Hot captured for this batch.
func (r *RAMpage) flushFast(mh *core.Hot, tlbHits, l1iHits, l1dHits, ifetches uint64) {
	r.rep.TLBHits += tlbHits
	r.rep.BenchRefs += tlbHits
	mh.TLB.Stats.Hits += tlbHits
	mh.Stats.Translations += tlbHits
	r.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	r.fast.l1i.Stats.Hits += l1iHits
	r.fast.l1d.Stats.Hits += l1dHits
}

// flushTraceFast is flushFast for handler-trace references: kernel
// translations count as core translations but not TLB hits.
func (r *RAMpage) flushTraceFast(mh *core.Hot, class RefClass, count, translations, l1iHits, l1dHits, ifetches uint64) {
	countRefs(&r.rep, class, count)
	mh.Stats.Translations += translations
	r.rep.Charge(stats.L1I, mem.Cycles(ifetches))
	r.fast.l1i.Stats.Hits += l1iHits
	r.fast.l1d.Stats.Hits += l1dHits
}

// execTraceFast is RAMpage.ExecTrace's fused loop for handler traces.
// Kernel references translate by identity bounds check against the
// pinned OS region and hit SRAM at worst. ExecTrace sizes the run with
// runLimit against limit, the next in-flight page arrival (0 = none);
// it returns the count consumed, short when a fallback overran limit or
// left a prefetch pending.
func (r *RAMpage) execTraceFast(refs []mem.Ref, class RefClass, limit mem.Cycles) (int, error) {
	mh := &r.mmHot
	ptFlags, mmShift := mh.PTFlags, mh.PageShift
	ih, dh := &r.fast.l1i, &r.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	kernelLimit := r.kernelLimit
	var count, translations, l1iHits, l1dHits, ifetches uint64
	for i := range refs {
		ref := refs[i]
		if ref.PID == mem.KernelPID {
			off := uint64(ref.Addr) - synth.KernelBase
			if uint64(ref.Addr) >= synth.KernelBase && off < kernelLimit {
				count++
				translations++
				if ref.Kind == mem.IFetch {
					block := off >> iBlockShift
					set := block & iSetMask
					if tag := block >> iSetShift; iTags[set] == tag && tag != cache.TagInvalid {
						ifetches++
						l1iHits++
						continue
					}
				} else {
					if ref.Kind == mem.Store {
						ptFlags[off>>mmShift] |= pagetable.FlagDirty
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
				r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
				count, translations, l1iHits, l1dHits, ifetches = 0, 0, 0, 0, 0
				r.accessL1(ref.Kind, mem.PAddr(off))
				if overrun(r.rep.Cycles, limit, len(refs)-i-1) {
					return i + 1, nil
				}
				continue
			}
		}
		// User reference (or out-of-range kernel address): the per-
		// reference path. A block is an error in a trace, and a
		// prefetch it starts leaves a page pending, which the fused
		// loop does not model.
		r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
		count, translations, l1iHits, l1dHits, ifetches = 0, 0, 0, 0, 0
		block, err := r.execOne(ref, class)
		if err != nil {
			return i, err
		}
		if block != 0 {
			return i, fmt.Errorf("sim: pinned OS reference faulted")
		}
		if len(r.pending) != 0 || overrun(r.rep.Cycles, limit, len(refs)-i-1) {
			return i + 1, nil
		}
	}
	r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
	return len(refs), nil
}

// ExecBatchColumnar implements Machine. The common case — a user
// reference whose translation is in the TLB — runs in the fused loop,
// in runs sized against the deadline; everything else takes the
// per-reference path. The baseline never blocks, so consumed is
// len(kinds) unless an error occurs or the deadline stops the call.
func (b *Baseline) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	fast := b.obs == nil && b.fast.ok && pid != mem.KernelPID
	for i := 0; i < len(kinds); {
		if i > 0 && until != 0 && b.rep.Cycles >= until {
			return i, 0, nil
		}
		if fast {
			end := i + runLimit(len(kinds)-i, b.rep.Cycles, until)
			n, err := b.execBatchFast(pid, kinds[i:end], addrs[i:end], until)
			i += n
			if err != nil {
				return i, 0, err
			}
			continue
		}
		ref := mem.Ref{PID: pid, Kind: kinds[i], Addr: addrs[i]}
		if pid != mem.KernelPID {
			if pa, hit := b.tlb.TryLookup(pid, ref.Addr); hit {
				b.rep.TLBHits++
				b.rep.BenchRefs++
				b.accessL1(ref.Kind, pa)
				i++
				continue
			}
		}
		if err := b.execOne(ref, ClassBench); err != nil {
			return i, 0, err
		}
		i++
	}
	return len(kinds), 0, nil
}

// execBatchFast is Baseline.ExecBatchColumnar's fused inner loop. Only
// called with obs == nil, direct-mapped L1s and a user PID: the
// window's single PID hoists both the kernel check and the key/filter
// PID terms out of the loop, and each iteration loads 9 bytes of
// column entries. The caller sizes the run with runLimit against limit
// (0 = none); it returns short when a fallback overran limit.
func (b *Baseline) execBatchFast(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, limit mem.Cycles) (int, error) {
	th := &b.fastTLB
	keys, vpns, frames, filter := th.Keys, th.VPNs, th.Frames, th.Filter
	pageShift, offMask := th.PageShift, th.OffMask
	ih, dh := &b.fast.l1i, &b.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	pidTerm := uint64(pid)
	addrs = addrs[:len(kinds)]
	var tlbHits, l1iHits, l1dHits, ifetches uint64
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
					ifetches++
					l1iHits++
					continue
				}
			} else {
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
			b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
			tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
			b.accessL1(kind, mem.PAddr(pa))
		} else {
			// True TLB miss: the per-reference miss machinery.
			b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
			tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
			if err := b.execOne(mem.Ref{PID: pid, Kind: kind, Addr: addrs[i]}, ClassBench); err != nil {
				return i, err
			}
		}
		if overrun(b.rep.Cycles, limit, len(kinds)-i-1) {
			return i + 1, nil
		}
	}
	b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
	return len(kinds), nil
}

// ExecBatchColumnar implements Machine. The fast path — a user
// reference whose translation hits the TLB — skips the per-reference
// event machinery entirely, in runs that stop at the deadline and at
// the next in-flight page arrival, where the per-reference path would
// unpin the page: every pin, in-flight entry and checkpoint byte
// changes at the reference it changes at under repeated Exec calls.
// TLB misses and faults fall back to the per-reference path, as does
// every reference while a prefetched page is pending (a demand access
// to it can stall mid-run). A blocking reference stops the batch
// unconsumed, exactly like Exec.
func (r *RAMpage) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	fast := r.fast.ok && r.obs == nil && pid != mem.KernelPID
	for i := 0; i < len(kinds); {
		if i > 0 && until != 0 && r.rep.Cycles >= until {
			return i, 0, nil
		}
		r.unpinCompleted()
		if fast && len(r.pending) == 0 {
			limit := earlier(until, r.nextArrival())
			end := i + runLimit(len(kinds)-i, r.rep.Cycles, limit)
			n, block, err := r.execBatchFast(pid, kinds[i:end], addrs[i:end], limit)
			i += n
			if err != nil || block != 0 {
				return i, block, err
			}
			continue
		}
		ref := mem.Ref{PID: pid, Kind: kinds[i], Addr: addrs[i]}
		if len(r.pending) == 0 {
			if pa, ok := r.mm.TranslateHit(pid, ref.Addr, ref.Kind == mem.Store); ok {
				r.rep.TLBHits++
				r.rep.BenchRefs++
				r.accessL1(ref.Kind, pa)
				i++
				continue
			}
		}
		block, err := r.execOne(ref, ClassBench)
		if err != nil || block != 0 {
			return i, block, err
		}
		i++
	}
	return len(kinds), 0, nil
}

// nextArrival returns the earliest in-flight page arrival, or 0 when no
// transfer is in flight.
func (r *RAMpage) nextArrival() mem.Cycles {
	var t mem.Cycles
	for _, p := range r.inFlight {
		t = earlier(t, p.ready)
	}
	return t
}

// execBatchFast is RAMpage.ExecBatchColumnar's fused inner loop (see
// Baseline.execBatchFast for the shape). Only called with obs == nil,
// direct-mapped L1s, a user PID and no prefetch pending, on a run
// sized with runLimit against limit (0 = none). It returns short when
// a reference blocks or errors, when a fallback overran limit, or when
// a fallback left a prefetch pending.
func (r *RAMpage) execBatchFast(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, limit mem.Cycles) (int, mem.Cycles, error) {
	mh := &r.mmHot
	th := &mh.TLB
	keys, vpns, frames, filter := th.Keys, th.VPNs, th.Frames, th.Filter
	pageShift, offMask := th.PageShift, th.OffMask
	ptFlags, mmShift := mh.PTFlags, mh.PageShift
	ih, dh := &r.fast.l1i, &r.fast.l1d
	iTags, iBlockShift, iSetMask, iSetShift := ih.Tags, ih.BlockShift, ih.SetMask, ih.SetShift
	dTags, dBlockShift, dSetMask, dSetShift := dh.Tags, dh.BlockShift, dh.SetMask, dh.SetShift
	dDirty := dh.Dirty
	pidTerm := uint64(pid)
	addrs = addrs[:len(kinds)]
	var tlbHits, l1iHits, l1dHits, ifetches uint64
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
					ifetches++
					l1iHits++
					continue
				}
			} else {
				if kind == mem.Store {
					ptFlags[pa>>mmShift] |= pagetable.FlagDirty
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
			r.flushFast(mh, tlbHits, l1iHits, l1dHits, ifetches)
			tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
			r.accessL1(kind, mem.PAddr(pa))
		} else {
			// True TLB miss: the per-reference miss machinery. A fault
			// that starts a transfer either blocks (switch-on-miss) or
			// leaves a prefetch pending; both end the run.
			r.flushFast(mh, tlbHits, l1iHits, l1dHits, ifetches)
			tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
			block, err := r.execOne(mem.Ref{PID: pid, Kind: kind, Addr: addrs[i]}, ClassBench)
			if err != nil || block != 0 {
				return i, block, err
			}
			if len(r.pending) != 0 {
				return i + 1, 0, nil
			}
		}
		if overrun(r.rep.Cycles, limit, len(kinds)-i-1) {
			return i + 1, 0, nil
		}
	}
	r.flushFast(mh, tlbHits, l1iHits, l1dHits, ifetches)
	return len(kinds), 0, nil
}

// Release returns pooled resources — the inverted page table's arena
// slabs — for reuse by the next machine with the same geometry. The
// machine must not execute references afterwards; its report remains
// readable.
func (b *Baseline) Release() { b.pt.Recycle() }

// Release returns pooled resources (see Baseline.Release).
func (r *RAMpage) Release() { r.mm.Recycle() }
