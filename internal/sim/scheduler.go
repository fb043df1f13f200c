package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"rampage/internal/mem"
	"rampage/internal/metrics"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// procState is a simulated process's scheduling state.
type procState uint8

const (
	procReady procState = iota
	procRunning
	procBlocked
	procDone
)

// proc is one simulated process: a reference stream with scheduling
// state.
type proc struct {
	pid       mem.PID
	state     procState
	readyAt   mem.Cycles // when blocked: page-arrival time
	sliceLeft uint64     // references remaining in the current time slice
	done      uint64     // references executed from this stream (checkpoint cursor)

	// col is the column window the scheduler executes from. A captured
	// stream (a *trace.ColumnarReader handed to NewScheduler) is its own
	// window and is replayed zero-copy. Any other stream gets a window
	// over the small per-process buffer win, which refill reloads from
	// src whenever it runs dry.
	col *trace.ColumnarReader
	// src is the refilled stream (nil for a captured one), and rdErr
	// its terminal error (io.EOF or a failure), delivered once the
	// window drains.
	src   trace.Reader
	win   trace.ColumnarBuffer
	rdErr error
	// skip counts executed references a restore left in src: the
	// stream is advanced past them on the process's next refill, so a
	// restored process that never runs again never reads its stream.
	skip uint64
}

// refillRefs is the per-process refill window of a stream that is not
// captured in columns.
const refillRefs = 512

// refill reloads an exhausted window from the process's stream through
// trace.ReadColumns, first discarding any prefix a restore left to
// skip: a generator writes straight into the window, and any other
// stream is read one reference at a time. It returns nil with an empty
// window at end of stream, and the stream's error once every reference
// read before it has executed.
func (p *proc) refill() error {
	if p.src == nil {
		return nil // captured: the columns are the whole stream
	}
	if p.win.Kinds == nil {
		p.win.Kinds = make([]mem.RefKind, 0, refillRefs)
		p.win.Addrs = make([]mem.VAddr, 0, refillRefs)
	}
	kinds, addrs := p.win.Kinds[:refillRefs], p.win.Addrs[:refillRefs]
	if p.skip > 0 {
		n := p.skip
		p.skip = 0
		if err := discard(p.src, n, kinds, addrs); err != nil {
			return fmt.Errorf("sim: repositioning process %d: %w", p.pid, err)
		}
	}
	if p.rdErr == nil {
		// The scheduler tags every reference with the process PID, so
		// only kinds and addresses are kept.
		n, err := trace.ReadColumns(p.src, kinds, addrs)
		if n == 0 && err == nil {
			err = io.EOF // defensive: empty read with no error
		}
		p.rdErr = err
		p.win.Kinds, p.win.Addrs = kinds[:n], addrs[:n]
		p.col.Reset()
		if n > 0 {
			return nil
		}
	}
	if errors.Is(p.rdErr, io.EOF) {
		return nil
	}
	return p.rdErr
}

// SchedulerConfig configures the multiprogramming driver.
type SchedulerConfig struct {
	// Quantum is the time slice in references (§4.2: 500,000).
	Quantum uint64
	// InsertSwitchTrace interleaves the ~400-reference context-switch
	// code at every switch (§4.6). Table 3 runs omit it; Tables 4–5
	// include it.
	InsertSwitchTrace bool
	// LightweightThreads replaces the switch code on *miss-induced*
	// switches with a ~40-reference thread switch — the §3.2/§6.3
	// multithreading extension. Quantum-boundary switches still pay
	// the full process-switch cost.
	LightweightThreads bool
	// Seed drives the context-switch trace generator.
	Seed uint64
	// MaxRefs, when non-zero, stops the run after that many
	// application references (for smoke tests and quick sweeps).
	MaxRefs uint64
	// Observer, when non-nil, receives scheduling events (context
	// switches) and a Tick with the simulated time before every window,
	// so it can cut interval snapshots at window boundaries. It never
	// influences scheduling or the windows: the run executes the same
	// calls, and its report is bit-identical, with or without one
	// attached.
	Observer metrics.Observer
}

// readyRing is a fixed-capacity FIFO of process indices with O(1)
// push-front for the resume-on-arrival path (the per-preemption slice
// prepend it replaces allocated on every miss-induced switch). A
// process is enqueued only on its transition to procReady, so at most
// once concurrently: capacity equals the process count and pushes
// cannot overflow.
type readyRing struct {
	buf  []int
	head int
	n    int
}

func newReadyRing(capacity int) readyRing {
	return readyRing{buf: make([]int, capacity)}
}

func (r *readyRing) len() int { return r.n }

func (r *readyRing) pushBack(v int) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *readyRing) pushFront(v int) {
	r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
	r.buf[r.head] = v
	r.n++
}

func (r *readyRing) popFront() int {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// Scheduler drives a Machine with a multiprogrammed workload.
//
// Time-slice scheduling is round-robin with a fixed reference quantum
// (§4.2). Context switches on misses (§4.6) treat the *miss* as the
// scheduling unit, like a software non-blocking cache: when a page
// fault blocks the running process, another ready process fills the
// gap, and as soon as the page arrives the faulting process preempts
// the fill-in and resumes the remainder of its time slice. Without
// prompt resumption a fault would rotate all working sets through the
// SRAM and amplify faults instead of hiding latency; with it, at most
// a couple of working sets are active between slice boundaries, and
// the trade the paper measures emerges naturally — a switch pair
// (~2×400 references) is only worth taking when the page transfer
// outlasts it, which is why switches on misses pay off as the
// CPU–DRAM gap grows.
//
// The rules, in the order the scheduler applies them:
//
//   - Processes start in a FIFO ready queue in reader order; the head
//     runs first. Dispatch first admits every blocked process whose
//     page has arrived to the back of the queue, earliest arrival
//     first (ties by process order); with nothing ready but pages in
//     flight it idles the machine to the earliest arrival.
//   - Before each reference: stop once MaxRefs application references
//     have executed; then, if a blocked process's page has arrived and
//     it is not the running one, the earliest such process preempts:
//     the fill-in goes to the FRONT of the queue and a miss-induced
//     switch is charged.
//   - A reference that completes counts against the slice. When the
//     slice expires it is refreshed, arrivals are admitted, and the
//     process rotates to the back of the queue if anything else is
//     ready; a rotation that changes process counts one Switch.
//   - A reference that blocks (switch-on-miss) is retried, unexecuted,
//     when its process next runs. If no other page is in flight the
//     process blocks until the arrival time, SwitchesOnMiss counts it,
//     and the next ready process is dispatched with a miss-induced
//     switch; otherwise the process stalls in place until its page
//     arrives, so at most one transfer is overlapped at a time.
//   - A finished stream dispatches the next process with an ordinary
//     (uncounted) switch. The run ends when every stream is finished.
//
// Every switch between two different processes executes the context-
// switch trace when InsertSwitchTrace is set — the lightweight thread
// switch instead for miss-induced switches under LightweightThreads.
type Scheduler struct {
	m      Machine
	cfg    SchedulerConfig
	procs  []*proc
	queue  readyRing
	wakeAt mem.Cycles // earliest blocked readyAt (0 = none)
	kernel *synth.Kernel
	buf    []mem.Ref // switch-trace scratch

	// executed counts application references across the scheduler's
	// whole life, surviving checkpoint restores, so a resumed run stops
	// at the same MaxRefs boundary a from-scratch run would.
	executed uint64
	// resumed and resumeCur arm the restore entry path: the first Run
	// iteration after DecodeState re-enters the restored running process
	// instead of dispatching from the queue (the running process is not
	// queued, so a dispatch would pick the wrong one).
	resumed   bool
	resumeCur int
}

// NewScheduler builds a scheduler over one reader per process; the
// reader for process i is tagged PID i. A *trace.ColumnarReader is
// executed from its columns in place; any other reader is consumed
// through a per-process refill window.
func NewScheduler(m Machine, readers []trace.Reader, cfg SchedulerConfig) (*Scheduler, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("sim: scheduler needs at least one process")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = trace.DefaultQuantum
	}
	s := &Scheduler{
		m:      m,
		cfg:    cfg,
		procs:  make([]*proc, len(readers)),
		queue:  newReadyRing(len(readers)),
		kernel: synth.NewKernel(cfg.Seed + 9),
	}
	for i, r := range readers {
		p := &proc{pid: mem.PID(i), sliceLeft: cfg.Quantum}
		if cr, ok := r.(*trace.ColumnarReader); ok {
			p.col = cr
		} else {
			p.src = r
			p.col = trace.NewColumnarReader(&p.win)
		}
		s.procs[i] = p
		s.queue.pushBack(i)
	}
	return s, nil
}

// Run executes the workload to completion and returns the machine's
// report, stopping early with ctx.Err() when the context is canceled.
//
// Each iteration executes one window of the running process's columns
// with a single ExecBatchColumnar call. The window is bounded so that
// every scheduling decision lands on exactly the reference the rules
// above put it on:
//
//   - it never exceeds the slice remainder, so quantum boundaries fall
//     on the same reference however the stream is buffered;
//   - its deadline is wakeAt, the earliest blocked page arrival (0,
//     no deadline, when nothing is blocked): the machine stops before
//     the first reference that would start at or after it, which is
//     where the resume-on-arrival check preempts. The window's first
//     reference runs whatever the clock reads, as one reference runs
//     after every preemption check;
//   - a blocking reference is left unconsumed at the window cursor and
//     retried when its process next runs;
//   - MaxRefs caps it, and a stream error surfaces only after every
//     reference read before it has executed;
//   - an Observer does not size it: the Observer's Tick fires once
//     before each window, and the machine runs observed and plain
//     windows on the same path.
func (s *Scheduler) Run(ctx context.Context) (*stats.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := s.m.Report()
	cur, ok := s.resumeOrDispatch()
	if !ok {
		return rep, nil
	}
	for {
		// One poll per window, so the cancellation check amortizes like
		// the rest of the dispatch overhead.
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if s.cfg.Observer != nil {
			s.cfg.Observer.Tick(uint64(s.m.Now()))
		}
		if s.cfg.MaxRefs > 0 && s.executed >= s.cfg.MaxRefs {
			return rep, nil
		}
		// Resume-on-arrival: a blocked process whose page has landed
		// preempts the current (fill-in) process immediately.
		if s.wakeAt != 0 && s.m.Now() >= s.wakeAt {
			if woken := s.earliestArrived(); woken >= 0 && woken != cur {
				s.procs[cur].state = procReady
				s.queue.pushFront(cur) // fill-in keeps priority
				if err := s.switchTrace(rep, cur, woken, true); err != nil {
					return rep, err
				}
				s.procs[woken].state = procRunning
				cur = woken
			}
			s.recomputeWake()
		}
		p := s.procs[cur]
		kinds, addrs := p.col.Tail()
		if len(kinds) == 0 {
			if err := p.refill(); err != nil {
				return rep, err
			}
			if kinds, addrs = p.col.Tail(); len(kinds) == 0 {
				p.state = procDone
				next, ok := s.dispatch()
				if !ok {
					return rep, nil // all done
				}
				if err := s.switchTrace(rep, cur, next, false); err != nil {
					return rep, err
				}
				cur = next
				continue
			}
		}
		window := uint64(len(kinds))
		if window > p.sliceLeft {
			window = p.sliceLeft
		}
		if s.cfg.MaxRefs > 0 {
			if left := s.cfg.MaxRefs - s.executed; window > left {
				window = left
			}
		}
		consumed, blockUntil, err := s.m.ExecBatchColumnar(p.pid, kinds[:window], addrs[:window], s.wakeAt)
		p.col.Skip(consumed)
		s.executed += uint64(consumed)
		p.done += uint64(consumed)
		p.sliceLeft -= uint64(consumed)
		if err != nil {
			return rep, err
		}
		if blockUntil != 0 {
			// The reference at the window cursor faulted and must retry
			// after blockUntil.
			if s.wakeAt != 0 {
				// Another page is already in flight: a second switch
				// would drag a third working set into the SRAM and
				// amplify faults instead of hiding latency. Stall this
				// (fill-in) process until its own page arrives; the
				// loop-top preemption hands control back to the
				// original faulter the moment its page lands.
				s.m.AdvanceTo(blockUntil)
				continue
			}
			// Page fault with switch-on-miss: block this process and
			// run something else while the page is in flight (§4.6).
			s.blockProc(rep, cur, blockUntil)
			next, err := s.resumeAfterBlock(rep, cur)
			if err != nil {
				return rep, err
			}
			cur = next
			continue
		}
		if p.sliceLeft == 0 {
			next, err := s.quantumBoundary(rep, cur)
			if err != nil {
				return rep, err
			}
			cur = next
		}
	}
}

// blockProc records a page-fault block for the current process
// (switch-on-miss, §4.6) and updates the wake bookkeeping.
func (s *Scheduler) blockProc(rep *stats.Report, cur int, blockUntil mem.Cycles) {
	p := s.procs[cur]
	p.state = procBlocked
	p.readyAt = blockUntil
	rep.SwitchesOnMiss++
	if s.cfg.Observer != nil {
		s.cfg.Observer.Count(metrics.EvSwitchOnMiss, 1)
	}
	if s.wakeAt == 0 || blockUntil < s.wakeAt {
		s.wakeAt = blockUntil
	}
}

// resumeAfterBlock dispatches the fill-in process after a block and
// charges the miss-induced switch trace.
func (s *Scheduler) resumeAfterBlock(rep *stats.Report, cur int) (int, error) {
	next, ok := s.dispatch()
	if !ok {
		return -1, fmt.Errorf("sim: no runnable process while pages in flight")
	}
	if err := s.switchTrace(rep, cur, next, true); err != nil {
		return -1, err
	}
	return next, nil
}

// quantumBoundary handles an expired time slice: refresh the slice,
// admit arrived processes and rotate round-robin.
func (s *Scheduler) quantumBoundary(rep *stats.Report, cur int) (int, error) {
	p := s.procs[cur]
	p.sliceLeft = s.cfg.Quantum
	s.admitUnblocked()
	if s.queue.len() == 0 {
		return cur, nil
	}
	// Round-robin: the running process goes to the back.
	p.state = procReady
	s.queue.pushBack(cur)
	next, _ := s.dispatch()
	if next != cur {
		rep.Switches++
		if s.cfg.Observer != nil {
			s.cfg.Observer.Count(metrics.EvContextSwitch, 1)
		}
		if err := s.switchTrace(rep, cur, next, false); err != nil {
			return cur, err
		}
	}
	return next, nil
}

// dispatch pops the next runnable process off the FIFO queue, first
// admitting any blocked processes whose pages have arrived and idling
// the machine forward when nothing is ready but transfers are in
// flight. ok is false when every process is done.
func (s *Scheduler) dispatch() (int, bool) {
	s.admitUnblocked()
	for s.queue.len() == 0 {
		if !s.waitForBlocked() {
			return -1, false
		}
		s.admitUnblocked()
	}
	next := s.queue.popFront()
	s.procs[next].state = procRunning
	return next, true
}

// resumeOrDispatch is the Run-loop entry point: after a checkpoint
// restore it re-enters the restored running process (which DecodeState
// left out of the ready queue, exactly as the original run did); on a
// fresh start it dispatches normally.
func (s *Scheduler) resumeOrDispatch() (int, bool) {
	if s.resumed {
		s.resumed = false
		if s.resumeCur >= 0 {
			return s.resumeCur, true
		}
	}
	return s.dispatch()
}

// Executed returns the number of application references executed so
// far, accumulated across checkpoint restores.
func (s *Scheduler) Executed() uint64 { return s.executed }

// earliestArrived returns the blocked process with the earliest
// readyAt that has already arrived, or -1.
func (s *Scheduler) earliestArrived() int {
	now := s.m.Now()
	best := -1
	for i, p := range s.procs {
		if p.state == procBlocked && p.readyAt <= now {
			if best < 0 || p.readyAt < s.procs[best].readyAt {
				best = i
			}
		}
	}
	return best
}

// recomputeWake refreshes the earliest blocked arrival time.
func (s *Scheduler) recomputeWake() {
	s.wakeAt = 0
	for _, p := range s.procs {
		if p.state == procBlocked && (s.wakeAt == 0 || p.readyAt < s.wakeAt) {
			s.wakeAt = p.readyAt
		}
	}
}

// admitUnblocked moves blocked processes whose pages have arrived onto
// the ready queue, in arrival order.
func (s *Scheduler) admitUnblocked() {
	now := s.m.Now()
	for {
		best := -1
		for i, p := range s.procs {
			if p.state == procBlocked && p.readyAt <= now {
				if best < 0 || p.readyAt < s.procs[best].readyAt {
					best = i
				}
			}
		}
		if best < 0 {
			s.recomputeWake()
			return
		}
		s.procs[best].state = procReady
		s.queue.pushBack(best)
	}
}

// waitForBlocked advances time to the earliest blocked process's
// page arrival. It reports false when no process is blocked (the
// workload is complete).
func (s *Scheduler) waitForBlocked() bool {
	var earliest mem.Cycles
	found := false
	for _, p := range s.procs {
		if p.state == procBlocked && (!found || p.readyAt < earliest) {
			earliest = p.readyAt
			found = true
		}
	}
	if !found {
		return false
	}
	s.m.AdvanceTo(earliest)
	return true
}

// switchTrace interleaves the context-switch code trace when
// configured. Miss-induced switches use the lightweight thread-switch
// trace when LightweightThreads is set.
func (s *Scheduler) switchTrace(rep *stats.Report, from, to int, onMiss bool) error {
	if to == from {
		return nil
	}
	if s.cfg.InsertSwitchTrace {
		if onMiss && s.cfg.LightweightThreads {
			s.buf = s.kernel.AppendThreadSwitch(s.buf[:0], s.procs[from].pid, s.procs[to].pid)
		} else {
			s.buf = s.kernel.AppendContextSwitch(s.buf[:0], s.procs[from].pid, s.procs[to].pid)
		}
		if err := s.m.ExecTrace(s.buf, ClassSwitch); err != nil {
			return fmt.Errorf("sim: context-switch trace failed: %w", err)
		}
	}
	return nil
}
