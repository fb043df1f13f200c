// Package metrics is the simulator's probe layer: a small event
// vocabulary, an Observer interface the model packages call through
// nil-guarded hooks, and a Collector that accumulates counters,
// bounded log2 histograms and periodic interval snapshots.
//
// The package is deliberately dependency-free so every layer of the
// simulator (tlb, pagetable, dram, sim, harness) can import it without
// cycles. Probes are designed for the batched hot loop: with no
// observer attached a probe is a single nil check, and the Collector's
// Count/Observe/Tick paths never allocate, so attaching one does not
// perturb the zero-allocation steady state the batch tests pin.
//
// Probes record *dynamics* — what happened when — and never feed back
// into simulated behaviour: a run's stats.Report is bit-identical with
// or without an observer attached (the harness equivalence tests
// enforce this).
package metrics

import "math/bits"

// Event identifies one probe point in the simulator.
type Event uint8

const (
	// EvTLBHit is a TLB lookup that hit; EvTLBMiss one that walked the
	// page table; EvTLBEvict a translation shot down by page
	// replacement (§2.3); EvTLBFlush a whole-TLB or per-PID flush.
	EvTLBHit Event = iota
	EvTLBMiss
	EvTLBEvict
	EvTLBFlush
	// EvPTProbes observes the chain length of one inverted-page-table
	// walk (the "slower on lookup" cost of §2.2).
	EvPTProbes
	// EvClockSweep observes the entries one clock-hand victim selection
	// examined (§4.5).
	EvClockSweep
	// EvPageFault is one SRAM page-fault handler invocation.
	EvPageFault
	// EvTLBHandlerCycles and EvFaultHandlerCycles observe the simulated
	// cycles one handler-trace replay took.
	EvTLBHandlerCycles
	EvFaultHandlerCycles
	// EvContextSwitch is a quantum-boundary switch; EvSwitchOnMiss a
	// miss-induced switch (§4.6).
	EvContextSwitch
	EvSwitchOnMiss
	// EvDRAMTransfer observes the size in bytes of one real transfer on
	// the Rambus channel (block fills, page fetches, write-backs).
	EvDRAMTransfer
	// EvDRAMRowHit / EvDRAMRowMiss count row-buffer outcomes in the
	// banked RDRAM device (§6.3).
	EvDRAMRowHit
	EvDRAMRowMiss
	// NumEvents is the probe vocabulary size.
	NumEvents
)

// String names the event for reports.
func (e Event) String() string {
	switch e {
	case EvTLBHit:
		return "tlb_hit"
	case EvTLBMiss:
		return "tlb_miss"
	case EvTLBEvict:
		return "tlb_evict"
	case EvTLBFlush:
		return "tlb_flush"
	case EvPTProbes:
		return "pt_probes"
	case EvClockSweep:
		return "clock_sweep"
	case EvPageFault:
		return "page_fault"
	case EvTLBHandlerCycles:
		return "tlb_handler_cycles"
	case EvFaultHandlerCycles:
		return "fault_handler_cycles"
	case EvContextSwitch:
		return "context_switch"
	case EvSwitchOnMiss:
		return "switch_on_miss"
	case EvDRAMTransfer:
		return "dram_transfer"
	case EvDRAMRowHit:
		return "dram_row_hit"
	case EvDRAMRowMiss:
		return "dram_row_miss"
	default:
		return "unknown"
	}
}

// Observer receives probe events. Implementations must not allocate in
// Count, Observe or Tick — they run inside the simulator's hot loops.
// The model packages guard every call with a nil check, so a nil
// observer costs one predictable branch.
type Observer interface {
	// Count adds n occurrences of an event.
	Count(e Event, n uint64)
	// Observe records one occurrence with a magnitude (a chain length,
	// a byte count, a cycle cost): it counts the event and feeds the
	// value into the event's histogram.
	Observe(e Event, v uint64)
	// Tick reports simulated time so the observer can cut periodic
	// interval snapshots. Callers invoke it from scheduling points, not
	// per reference.
	Tick(now uint64)
}

// histBuckets is the histogram resolution: one bucket per power of
// two, covering the full uint64 range (bucket i holds values v with
// bits.Len64(v) == i, i.e. bucket 0 is exactly 0, bucket 1 is 1,
// bucket 2 is 2–3, ...).
const histBuckets = 65

// Histogram is a bounded log2 histogram: fixed storage, no allocation
// on record.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// record adds one value.
func (h *Histogram) record(v uint64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(v)]++
}

// Mean returns the average recorded value.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is one interval cut: cumulative counts at a point in
// simulated time.
type Snapshot struct {
	// Now is the simulated cycle at which the snapshot was cut.
	Now uint64 `json:"now"`
	// Counts holds the cumulative per-event counts.
	Counts [NumEvents]uint64 `json:"counts"`
}

// DefaultMaxSnapshots bounds the snapshot ring; once full, further
// ticks stop recording (SnapshotsDropped counts them) so a long run
// cannot grow memory without bound.
const DefaultMaxSnapshots = 1024

// Collector is the standard Observer: per-event counters, per-event
// bounded histograms for Observe'd magnitudes, and periodic cumulative
// snapshots. It is not safe for concurrent use — attach one per run
// (the cell pool runs cells in parallel and therefore detaches
// observers).
type Collector struct {
	counts [NumEvents]uint64
	hists  [NumEvents]Histogram

	interval  uint64 // simulated cycles between snapshots (0 = disabled)
	nextSnap  uint64
	snapshots []Snapshot
	dropped   uint64
}

// NewCollector builds a collector cutting a snapshot every
// intervalCycles of simulated time (0 disables snapshots). Snapshot
// storage is preallocated so Tick never allocates.
func NewCollector(intervalCycles uint64) *Collector {
	c := &Collector{interval: intervalCycles, nextSnap: intervalCycles}
	if intervalCycles > 0 {
		c.snapshots = make([]Snapshot, 0, DefaultMaxSnapshots)
	}
	return c
}

// Count implements Observer.
func (c *Collector) Count(e Event, n uint64) {
	c.counts[e] += n
}

// Observe implements Observer.
func (c *Collector) Observe(e Event, v uint64) {
	c.counts[e]++
	c.hists[e].record(v)
}

// Tick implements Observer: it cuts a snapshot when simulated time has
// crossed the interval boundary. Catch-up is single-step — one
// snapshot per crossing, stamped with the actual time — because the
// simulator's clock can jump by a whole page transfer at once.
func (c *Collector) Tick(now uint64) {
	if c.interval == 0 || now < c.nextSnap {
		return
	}
	if len(c.snapshots) == cap(c.snapshots) {
		c.dropped++
	} else {
		c.snapshots = append(c.snapshots, Snapshot{Now: now, Counts: c.counts})
	}
	for c.nextSnap <= now {
		c.nextSnap += c.interval
	}
}

// Counts returns a copy of the cumulative per-event counters.
func (c *Collector) Counts() [NumEvents]uint64 { return c.counts }

// Hist returns a copy of one event's histogram.
func (c *Collector) Hist(e Event) Histogram { return c.hists[e] }

// Snapshots returns the recorded interval snapshots (shared backing
// array; do not modify).
func (c *Collector) Snapshots() []Snapshot { return c.snapshots }

// SnapshotsDropped returns how many ticks fell past the snapshot cap.
func (c *Collector) SnapshotsDropped() uint64 { return c.dropped }

// HistogramSummary is the JSON form of one event's value distribution.
type HistogramSummary struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Min     uint64            `json:"min"`
	Max     uint64            `json:"max"`
	Mean    float64           `json:"mean"`
	Buckets map[string]uint64 `json:"log2_buckets,omitempty"`
}

// Summary is the JSON-able rollup of a collector's run.
type Summary struct {
	Counts           map[string]uint64           `json:"counts"`
	Histograms       map[string]HistogramSummary `json:"histograms,omitempty"`
	Snapshots        []Snapshot                  `json:"snapshots,omitempty"`
	SnapshotsDropped uint64                      `json:"snapshots_dropped,omitempty"`
}

// bucketLabel names a log2 bucket by its value range.
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	lo := uint64(1) << (i - 1)
	hi := lo<<1 - 1
	if lo == hi {
		return itoa(lo)
	}
	return itoa(lo) + "-" + itoa(hi)
}

// itoa formats a uint64 without importing strconv's formatting into
// the hot path (Summary runs once, after the simulation).
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Summary renders the collector for JSON emission. Zero-count events
// are omitted so reports stay readable.
func (c *Collector) Summary() *Summary {
	s := &Summary{Counts: make(map[string]uint64)}
	for e := Event(0); e < NumEvents; e++ {
		if c.counts[e] == 0 {
			continue
		}
		s.Counts[e.String()] = c.counts[e]
		h := &c.hists[e]
		if h.Count == 0 {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSummary)
		}
		hs := HistogramSummary{
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, Mean: h.Mean(),
			Buckets: make(map[string]uint64),
		}
		for i, n := range h.Buckets {
			if n > 0 {
				hs.Buckets[bucketLabel(i)] = n
			}
		}
		s.Histograms[e.String()] = hs
	}
	s.Snapshots = c.snapshots
	s.SnapshotsDropped = c.dropped
	return s
}
