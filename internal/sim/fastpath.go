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
// pinned OS region and hit SRAM at worst. Called under the same gate as
// execBatchFast; returns the count consumed before a fallback broke it.
func (r *RAMpage) execTraceFast(refs []mem.Ref, class RefClass) (int, error) {
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
				continue
			}
		}
		// User reference (or out-of-range kernel address): the per-
		// reference path; it can fault and start transfers, breaking
		// the gate.
		r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
		count, translations, l1iHits, l1dHits, ifetches = 0, 0, 0, 0, 0
		block, err := r.execOne(ref, class)
		if err != nil {
			return i, err
		}
		if block != 0 {
			return i, fmt.Errorf("sim: pinned OS reference faulted")
		}
		if len(r.inFlight) != 0 || len(r.pending) != 0 {
			return i + 1, nil
		}
	}
	r.flushTraceFast(mh, class, count, translations, l1iHits, l1dHits, ifetches)
	return len(refs), nil
}

// ExecBatchColumnar implements Machine. The common case — a user
// reference whose translation is in the TLB — runs in the fused loop;
// everything else takes the per-reference path. The baseline never
// blocks, so consumed is always len(kinds) unless an error occurs.
func (b *Baseline) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	if b.obs == nil && b.fast.ok && pid != mem.KernelPID {
		return b.execBatchFast(pid, kinds, addrs)
	}
	for i := range kinds {
		ref := mem.Ref{PID: pid, Kind: kinds[i], Addr: addrs[i]}
		if pid != mem.KernelPID {
			if pa, hit := b.tlb.TryLookup(pid, ref.Addr); hit {
				b.rep.TLBHits++
				b.rep.BenchRefs++
				b.accessL1(ref.Kind, pa)
				continue
			}
		}
		if err := b.execOne(ref, ClassBench); err != nil {
			return i, 0, err
		}
	}
	return len(kinds), 0, nil
}

// execBatchFast is Baseline.ExecBatchColumnar's fused inner loop. Only
// called with obs == nil, direct-mapped L1s and a user PID: the
// window's single PID hoists both the kernel check and the key/filter
// PID terms out of the loop, and each iteration loads 9 bytes of
// column entries.
func (b *Baseline) execBatchFast(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
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
			continue
		}
		// True TLB miss: the per-reference miss machinery.
		b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
		tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
		if err := b.execOne(mem.Ref{PID: pid, Kind: kind, Addr: addrs[i]}, ClassBench); err != nil {
			return i, 0, err
		}
	}
	b.flushFast(tlbHits, l1iHits, l1dHits, ifetches)
	return len(kinds), 0, nil
}

// ExecBatchColumnar implements Machine. The fast path — no transfers
// in flight, a user reference whose translation hits the TLB — skips
// the per-reference event machinery entirely; TLB misses, faults and
// any in-flight-page bookkeeping fall back to the per-reference path.
// A blocking reference stops the batch unconsumed, exactly like Exec.
func (r *RAMpage) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
	i := 0
	for i < len(kinds) {
		if r.fast.ok && r.obs == nil && pid != mem.KernelPID && len(r.inFlight) == 0 && len(r.pending) == 0 {
			// Fused loop; it consumes until a blocking fault, an error,
			// or a fallback that put transfers in flight.
			n, block, err := r.execBatchFast(pid, kinds[i:], addrs[i:])
			i += n
			if err != nil {
				return i, 0, err
			}
			if block != 0 {
				return i, block, nil
			}
			continue
		}
		ref := mem.Ref{PID: pid, Kind: kinds[i], Addr: addrs[i]}
		if len(r.inFlight) == 0 && len(r.pending) == 0 {
			if pa, ok := r.mm.TranslateHit(pid, ref.Addr, ref.Kind == mem.Store); ok {
				r.rep.TLBHits++
				r.rep.BenchRefs++
				r.accessL1(ref.Kind, pa)
				i++
				continue
			}
		}
		block, err := r.execOne(ref, ClassBench)
		if err != nil {
			return i, 0, err
		}
		if block != 0 {
			return i, block, nil
		}
		i++
	}
	return len(kinds), 0, nil
}

// execBatchFast is RAMpage.ExecBatchColumnar's fused inner loop (see
// Baseline.execBatchFast for the shape). Only called with obs == nil,
// direct-mapped L1s, a user PID and no transfers in flight; it returns
// early (consumed < len(kinds)) when a fallback breaks that gate so the
// caller can resume on the per-reference path.
func (r *RAMpage) execBatchFast(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (int, mem.Cycles, error) {
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
			continue
		}
		// True TLB miss: the per-reference miss machinery. The gate held
		// on entry and after every previous fallback.
		r.flushFast(mh, tlbHits, l1iHits, l1dHits, ifetches)
		tlbHits, l1iHits, l1dHits, ifetches = 0, 0, 0, 0
		block, err := r.execOne(mem.Ref{PID: pid, Kind: kind, Addr: addrs[i]}, ClassBench)
		if err != nil {
			return i, 0, err
		}
		if block != 0 {
			return i, block, nil
		}
		if len(r.inFlight) != 0 || len(r.pending) != 0 {
			// A fault or prefetch put transfers in flight: the fast
			// gate is broken, resume per-reference.
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
