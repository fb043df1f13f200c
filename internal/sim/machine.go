package sim

import (
	"rampage/internal/cache"
	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/stats"
)

// Machine is a simulated system: it executes references, keeps the
// simulated clock, and accumulates a stats.Report. The scheduler
// drives a Machine with application references and operating-system
// traces.
type Machine interface {
	// Exec runs one application reference. A zero return means the
	// reference completed. A non-zero return (only from a RAMpage
	// machine in switch-on-miss mode) is the absolute cycle at which
	// the reference's page arrives from DRAM: the process must block
	// and the SAME reference must be re-executed after that time.
	Exec(ref mem.Ref) (blockUntil mem.Cycles, err error)
	// ExecBatchColumnar runs one process's application references in
	// order from a column window — reference i is {pid, kinds[i],
	// addrs[i]} — stopping at the first that blocks or errors. consumed
	// is the number of references that completed. When consumed <
	// len(kinds) with a nil error and a non-zero blockUntil, reference
	// consumed faulted with its page arriving at blockUntil: it did NOT
	// execute and must be retried after that time, exactly as with
	// Exec. Machines accelerate the common TLB-hit/L1-hit case with a
	// fused fast path; the executed reference semantics are
	// bit-identical to repeated Exec calls. This is the only batch entry
	// point: the scheduler feeds every stream through it.
	ExecBatchColumnar(pid mem.PID, kinds []mem.RefKind, addrs []mem.VAddr) (consumed int, blockUntil mem.Cycles, err error)
	// ExecTrace runs an operating-system reference sequence (handler
	// or context-switch code), accounting it under the given class.
	ExecTrace(refs []mem.Ref, class RefClass) error
	// Now returns the machine's absolute simulated time.
	Now() mem.Cycles
	// AdvanceTo idles the machine to absolute time t (waiting for an
	// in-flight DRAM page with no runnable process); the idle time is
	// attributed to the DRAM level.
	AdvanceTo(t mem.Cycles)
	// Report returns the machine's measurement record. It remains
	// owned by the machine; read it after the run completes.
	Report() *stats.Report
	// SetObserver attaches a metrics observer to the machine and its
	// components (nil detaches). Observation is read-only: the Report
	// is bit-identical with or without an observer attached.
	SetObserver(obs metrics.Observer)
}

// observeDRAM forwards an observer to DRAM devices that expose probes
// (the banked RDRAM's row-buffer events); flat devices are stateless
// and have nothing to report.
func observeDRAM(d dram.Device, obs metrics.Observer) {
	if o, ok := d.(interface{ SetObserver(metrics.Observer) }); ok {
		o.SetObserver(obs)
	}
}

// l1pair is the split L1 of §4.3 shared by all machines: 16 KB each of
// direct-mapped, physically-indexed instruction and data cache with
// 32-byte blocks.
type l1pair struct {
	inst *cache.Cache
	data *cache.Cache
}

func newL1Pair(p Params) (l1pair, error) {
	mk := func(name string, seedOff uint64) (*cache.Cache, error) {
		return cache.New(cache.Config{
			Name:       name,
			SizeBytes:  p.L1Bytes,
			BlockBytes: p.L1Block,
			Assoc:      p.L1Assoc,
			Policy:     cache.LRU,
			Seed:       p.Seed + seedOff,
		})
	}
	inst, err := mk("L1i", 1)
	if err != nil {
		return l1pair{}, err
	}
	data, err := mk("L1d", 2)
	if err != nil {
		return l1pair{}, err
	}
	return l1pair{inst: inst, data: data}, nil
}

// side returns the cache a reference kind uses.
func (l l1pair) side(kind mem.RefKind) *cache.Cache {
	if kind.IsData() {
		return l.data
	}
	return l.inst
}

// purgeRange invalidates [addr, addr+size) from both L1 sides,
// charging one cycle per present block (tag probe + invalidate) to the
// owning side and the write-back penalty for dirty data blocks. It
// returns the number of dirty blocks purged so the caller can mark the
// underlying page dirty. This is the inclusion-maintenance cost the
// paper's figures show as the (small) L1i/L1d time.
func (l l1pair) purgeRange(addr mem.PAddr, size uint64, rep *stats.Report, wbPenalty mem.Cycles) (dirtyBlocks int) {
	l.inst.InvalidateRange(addr, size, func(b mem.PAddr, dirty bool) {
		rep.Charge(stats.L1I, 1)
	})
	l.data.InvalidateRange(addr, size, func(b mem.PAddr, dirty bool) {
		rep.Charge(stats.L1D, 1)
		if dirty {
			rep.Charge(stats.L2, wbPenalty)
			dirtyBlocks++
		}
	})
	return dirtyBlocks
}
