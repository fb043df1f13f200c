package oracle

import (
	"fmt"

	"rampage/internal/metrics"
	"rampage/internal/sim"
	"rampage/internal/stats"
)

// deepChecker is implemented by machines that expose structural
// invariant checks (the production Baseline and RAMpage machines).
// Machines without it — the victim-cache and prefetch ablations, and
// the oracle's own reference models — still get the observer-level
// checks (tick monotonicity, DRAM transfer accounting).
type deepChecker interface {
	CheckInvariants() error
}

// deepCheckInterval is the number of scheduler ticks between deep
// machine-state checks. The scheduler ticks once per window, and a
// window runs up to a time slice, a page arrival or a blocking fault.
// Deep checks walk every cache line and TLB entry, so running them on
// every tick would dominate a switch-on-miss run, which ticks at every
// fault; every 64 ticks checks a default-scale rampage-cs cell
// thousands of times mid-run and a rampage cell a few times, at about
// the cost of an unverified run.
const deepCheckInterval = 64

// InvariantChecker is a metrics.Observer that asserts machine-level
// invariants online while a simulation runs. Attach it with
// Machine.SetObserver (and as the SchedulerConfig.Observer so Tick
// fires at scheduling points); call Check after the run for the final
// verdict. The checker records the FIRST violation it sees, with the
// tick at which it was detected, and keeps forwarding events so a
// wrapped observer still sees the full stream.
//
// Observation is read-only and the checker never mutates the machine,
// so a verified run's Report is bit-identical to an unverified one.
// Unlike ordinary observers, the checker allocates when a deep check
// boundary passes — it is a verification tool, not a production probe.
type InvariantChecker struct {
	m    sim.Machine
	deep deepChecker // nil when the machine has no deep checks
	next metrics.Observer

	lastTick     uint64
	ticked       bool
	ticks        uint64
	obsDRAMBytes uint64 // sum of EvDRAMTransfer observations
	obsDRAMCount uint64

	err     error  // first violation
	errTick uint64 // tick count when it was recorded
}

// NewInvariantChecker builds a checker for m, forwarding all observer
// calls to next (which may be nil).
func NewInvariantChecker(m sim.Machine, next metrics.Observer) *InvariantChecker {
	c := &InvariantChecker{m: m, next: next}
	c.deep, _ = m.(deepChecker)
	return c
}

// record keeps the first violation.
func (c *InvariantChecker) record(err error) {
	if err != nil && c.err == nil {
		c.err = err
		c.errTick = c.ticks
	}
}

// Count forwards the event.
func (c *InvariantChecker) Count(e metrics.Event, n uint64) {
	if c.next != nil {
		c.next.Count(e, n)
	}
}

// Observe accumulates DRAM transfer accounting and forwards the event.
func (c *InvariantChecker) Observe(e metrics.Event, v uint64) {
	if e == metrics.EvDRAMTransfer {
		c.obsDRAMBytes += v
		c.obsDRAMCount++
	}
	if c.next != nil {
		c.next.Observe(e, v)
	}
}

// Tick checks cycle monotonicity on every call and runs the deep
// machine checks every deepCheckInterval ticks, then forwards.
func (c *InvariantChecker) Tick(now uint64) {
	if c.ticked && now < c.lastTick {
		c.record(fmt.Errorf("oracle: simulated time went backwards: tick %d after %d", now, c.lastTick))
	}
	c.lastTick = now
	c.ticked = true
	c.ticks++
	if c.deep != nil && c.ticks%deepCheckInterval == 0 {
		c.record(c.deep.CheckInvariants())
	}
	if c.next != nil {
		c.next.Tick(now)
	}
}

// Resume primes the checker's observed-transfer accounting from a
// report restored from a checkpoint: the transfers the captured run
// performed were observed by *its* checker, so a checker attached to
// the resumed run must start from the restored totals or Check's
// report-vs-observation reconciliation would flag every warm start.
func (c *InvariantChecker) Resume(rep *stats.Report) {
	c.obsDRAMCount = rep.DRAMTransfers
	c.obsDRAMBytes = rep.DRAMBytes
}

// Check runs the final deep checks and returns the first violation
// observed during the run, annotated with when it was detected.
func (c *InvariantChecker) Check() error {
	if c.deep != nil {
		c.record(c.deep.CheckInvariants())
		// The observed event stream must agree with the report: every
		// real Rambus transfer is both counted and observed. Machines
		// without SetObserver-driven emission (ablations) are excluded
		// by the deep gate above.
		rep := c.m.Report()
		if c.obsDRAMCount != rep.DRAMTransfers || c.obsDRAMBytes != rep.DRAMBytes {
			c.record(fmt.Errorf("oracle: observer saw %d DRAM transfers (%d bytes), report has %d (%d bytes)",
				c.obsDRAMCount, c.obsDRAMBytes, rep.DRAMTransfers, rep.DRAMBytes))
		}
	}
	if c.err != nil {
		return fmt.Errorf("invariant violated (detected at tick %d): %w", c.errTick, c.err)
	}
	return nil
}
