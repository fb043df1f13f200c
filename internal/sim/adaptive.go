package sim

import (
	"fmt"

	"rampage/internal/core"
	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/stats"
)

// Resize switches the RAMpage machine to a new SRAM page size and
// capacity — the §6.2 dynamic-page-size mechanism ("the only hardware
// support needed for this is a TLB capable of managing variable page
// sizes"). The switch empties the SRAM main memory: dirty pages are
// written back to DRAM (charged at the old page size), every L1 block
// is invalidated (dirty data blocks pay the write-back penalty), and a
// fresh page table is built. Subsequent accesses refault their pages
// at the new size.
//
// Resize fails while any page transfer is in flight (switch-on-miss
// mode with blocked processes): the in-flight bookkeeping would dangle.
func (r *RAMpage) Resize(pageBytes, sramBytes uint64) error {
	if len(r.inFlight) > 0 {
		return fmt.Errorf("sim: cannot resize pages while transfers are in flight")
	}
	// Write back the dirty contents of the old SRAM.
	dirty := r.mm.DirtyUserPages()
	if dirty > 0 {
		r.rep.Writebacks += dirty
		r.rep.DRAMTransfers += dirty
		r.rep.DRAMBytes += dirty * r.cfg.PageBytes
		if r.obs != nil {
			for i := uint64(0); i < dirty; i++ {
				r.obs.Observe(metrics.EvDRAMTransfer, r.cfg.PageBytes)
			}
		}
		r.rep.Charge(stats.DRAM, mem.Cycles(dirty)*r.cfg.transferCycles(r.cfg.PageBytes))
	}
	// Purge L1: every present block costs a probe cycle; dirty data
	// blocks pay the write-back penalty (their data joins the flush).
	r.l1.inst.Flush(func(mem.PAddr, bool) { r.rep.Charge(stats.L1I, 1) })
	r.l1.data.Flush(func(_ mem.PAddr, d bool) {
		r.rep.Charge(stats.L1D, 1)
		if d {
			r.rep.Charge(stats.L2, r.cfg.L1WBPenalty)
		}
	})
	mm, err := core.New(core.Config{
		TotalBytes: sramBytes,
		PageBytes:  pageBytes,
		TLBEntries: r.cfg.TLBEntries,
		TLBAssoc:   r.cfg.TLBAssoc,
		Seed:       r.cfg.Seed + 6,
		Policy:     r.cfg.Policy,
	})
	if err != nil {
		return err
	}
	r.cfg.PageBytes = pageBytes
	r.cfg.SRAMBytes = sramBytes
	r.setMemory(mm)
	r.rep.Resizes++
	return nil
}

// AdaptiveConfig configures the dynamic page-size controller.
type AdaptiveConfig struct {
	RAMpageConfig
	// MinPage and MaxPage bound the page-size search (defaults: the
	// paper's sweep endpoints, 128 B and 4 KB).
	MinPage, MaxPage uint64
	// EpochRefs is the evaluation interval in executed references
	// (default 200,000).
	EpochRefs uint64
	// SRAMBytesFor maps a page size to the SRAM capacity at that size
	// (the tag-bonus scaling of §4.5). Defaults to keeping the initial
	// capacity.
	SRAMBytesFor func(pageBytes uint64) uint64
	// HoldEpochs is how many epochs the controller rests at a plateau
	// before probing again (default 4).
	HoldEpochs int
}

// AdaptiveRAMpage wraps a RAMpage machine with the §6.2 dynamic tuning
// loop — "choosing the SRAM page size on the fly", the flexibility the
// paper argues a software-managed hierarchy has and a hardware cache
// cannot offer.
//
// The controller is an online hill climber on cycles-per-reference:
// every EpochRefs references it measures the epoch's cost, and
//
//   - after a move, if cost improved it keeps moving in the same
//     direction; if cost worsened it reverts and rests;
//   - at a plateau it rests HoldEpochs, then probes (upward by
//     default, downward when DRAM transfer time dwarfs the TLB-handler
//     work — oversized pages waste the channel);
//   - the epoch immediately after any resize is skipped, so the flush
//     transient never pollutes a measurement.
//
// Probes are not free — each resize flushes the SRAM and is charged in
// full — so the controller pays for its own exploration, exactly as a
// real system would.
type AdaptiveRAMpage struct {
	*RAMpage
	cfg AdaptiveConfig

	epochStart   uint64 // BenchRefs at epoch start
	epochCycles  mem.Cycles
	lastTLBRefs  uint64
	lastDRAMTime mem.Cycles
	lastIdle     mem.Cycles

	prevCost float64 // cycles per reference at the best known size
	lastMove int     // +1 doubled, -1 halved, 0 at rest
	skip     bool    // discard the epoch after a resize
	hold     int     // epochs to rest before probing again
	holdCur  int     // current backoff (doubles after fruitless probes)
}

// NewAdaptiveRAMpage builds the adaptive machine. Adaptive mode is
// incompatible with SwitchOnMiss (a resize cannot happen with pages in
// flight, and blocked-process bookkeeping would span the resize).
func NewAdaptiveRAMpage(cfg AdaptiveConfig) (*AdaptiveRAMpage, error) {
	if cfg.SwitchOnMiss {
		return nil, fmt.Errorf("sim: adaptive page sizing is incompatible with switch-on-miss")
	}
	if cfg.MinPage == 0 {
		cfg.MinPage = 128
	}
	if cfg.MaxPage == 0 {
		cfg.MaxPage = 4096
	}
	if cfg.EpochRefs == 0 {
		cfg.EpochRefs = 100_000
	}
	if cfg.HoldEpochs == 0 {
		cfg.HoldEpochs = 4
	}
	if cfg.SRAMBytesFor == nil {
		fixed := cfg.SRAMBytes
		cfg.SRAMBytesFor = func(uint64) uint64 { return fixed }
	}
	inner, err := NewRAMpage(cfg.RAMpageConfig)
	if err != nil {
		return nil, err
	}
	inner.rep.Name = "rampage-adaptive"
	return &AdaptiveRAMpage{RAMpage: inner, cfg: cfg, holdCur: cfg.HoldEpochs}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Exec implements Machine, interposing the epoch controller.
func (a *AdaptiveRAMpage) Exec(ref mem.Ref) (mem.Cycles, error) {
	block, err := a.RAMpage.Exec(ref)
	if err != nil {
		return block, err
	}
	if a.rep.BenchRefs-a.epochStart >= a.cfg.EpochRefs {
		if err := a.evaluate(); err != nil {
			return 0, err
		}
	}
	return block, nil
}

// ExecBatchColumnar implements Machine, overriding the embedded
// RAMpage fast path so the epoch controller still runs. Each sub-batch
// is capped at the epoch boundary (BenchRefs advances by exactly one
// per executed application reference), so evaluate fires at precisely
// the reference it would under per-reference Exec calls; without this
// override the promoted RAMpage method would run whole windows past
// epoch boundaries. Every sub-batch carries the deadline; only the
// call's first reference runs regardless of it, so a later sub-batch
// starts only while Now() < until.
func (a *AdaptiveRAMpage) ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr, until mem.Cycles) (int, mem.Cycles, error) {
	consumed := 0
	for consumed < len(kinds) {
		if consumed > 0 && until != 0 && a.rep.Cycles >= until {
			return consumed, 0, nil
		}
		left := uint64(len(kinds) - consumed)
		if done := a.rep.BenchRefs - a.epochStart; done < a.cfg.EpochRefs {
			if rest := a.cfg.EpochRefs - done; rest < left {
				left = rest
			}
		} else {
			left = 1
		}
		end := consumed + int(left)
		n, block, err := a.RAMpage.ExecBatchColumnar(pid, kinds[consumed:end], addrs[consumed:end], until)
		consumed += n
		if err != nil {
			return consumed, 0, err
		}
		if a.rep.BenchRefs-a.epochStart >= a.cfg.EpochRefs {
			if err := a.evaluate(); err != nil {
				return consumed, 0, err
			}
		}
		if block != 0 {
			return consumed, block, nil
		}
	}
	return consumed, 0, nil
}

// evaluate ends an epoch and runs the hill-climbing step.
func (a *AdaptiveRAMpage) evaluate() error {
	refs := a.rep.BenchRefs - a.epochStart
	cycles := a.rep.Cycles - a.epochCycles
	tlbRefs := a.rep.OSTLBRefs - a.lastTLBRefs
	dramTime := a.rep.LevelTime[stats.DRAM] - a.lastDRAMTime - (a.rep.IdleCycles - a.lastIdle)
	a.epochStart = a.rep.BenchRefs
	a.epochCycles = a.rep.Cycles
	a.lastTLBRefs = a.rep.OSTLBRefs
	a.lastDRAMTime = a.rep.LevelTime[stats.DRAM]
	a.lastIdle = a.rep.IdleCycles
	if refs == 0 {
		return nil
	}
	cost := float64(cycles) / float64(refs)

	if a.skip {
		// Warm-up epoch right after a resize: no judgment.
		a.skip = false
		return nil
	}
	if a.lastMove != 0 {
		switch {
		case cost <= a.prevCost*0.98:
			// The move paid off: bank the gain, keep climbing, and
			// reset the probe backoff.
			a.prevCost = cost
			a.holdCur = a.cfg.HoldEpochs
			return a.move(a.lastMove)
		case cost >= a.prevCost*1.02:
			// The move hurt: undo it and back off exponentially —
			// fruitless probes get rarer and rarer (each one costs a
			// full SRAM flush).
			dir := a.lastMove
			a.lastMove = 0
			a.holdCur = minInt(a.holdCur*2, 64)
			a.hold = a.holdCur
			return a.move(-dir)
		default:
			// Plateau: stay here and back off.
			a.lastMove = 0
			a.holdCur = minInt(a.holdCur*2, 64)
			a.hold = a.holdCur
			a.prevCost = cost
			return nil
		}
	}
	if a.hold > 0 {
		a.hold--
		a.prevCost = cost
		return nil
	}
	// Probe. Default upward (bigger pages cut TLB-handler work and
	// exploit spatial locality); go downward when the channel is being
	// wasted on oversized transfers.
	a.prevCost = cost
	page := a.RAMpage.cfg.PageBytes
	dir := +1
	if float64(dramTime) > 4*float64(tlbRefs) && page > a.cfg.MinPage {
		dir = -1
	}
	if (dir > 0 && page >= a.cfg.MaxPage) || (dir < 0 && page <= a.cfg.MinPage) {
		dir = -dir
	}
	if (dir > 0 && page >= a.cfg.MaxPage) || (dir < 0 && page <= a.cfg.MinPage) {
		return nil // single permitted size
	}
	a.lastMove = dir
	return a.move(dir)
}

// move resizes one step in the given direction, clamped to the bounds,
// and marks the next epoch as warm-up.
func (a *AdaptiveRAMpage) move(dir int) error {
	page := a.RAMpage.cfg.PageBytes
	var next uint64
	if dir > 0 {
		next = page * 2
		if next > a.cfg.MaxPage {
			a.lastMove = 0
			return nil
		}
	} else {
		next = page / 2
		if next < a.cfg.MinPage {
			a.lastMove = 0
			return nil
		}
	}
	a.skip = true
	return a.Resize(next, a.cfg.SRAMBytesFor(next))
}

// PageBytes returns the current SRAM page size.
func (a *AdaptiveRAMpage) PageBytes() uint64 { return a.RAMpage.cfg.PageBytes }
