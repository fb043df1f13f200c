package oracle

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/synth"
	"rampage/internal/trace"
)

// refState is a process's position in the reference scheduler.
type refState uint8

const (
	refReady refState = iota
	refRunning
	refBlocked
	refFinished
)

// refProc is one process of the multiprogrammed workload.
type refProc struct {
	r       trace.Reader
	pid     mem.PID
	state   refState
	arrives mem.Cycles // when blocked: the cycle its page lands
	slice   uint64     // references left in the current time slice
	retry   mem.Ref    // a blocked reference, re-executed first
	blocked bool       // retry holds a reference
}

// schedFault plants a deliberate scheduling bug in the reference
// scheduler, so tests can prove the differential engine sees one.
type schedFault uint8

const (
	noFault schedFault = iota
	// faultNoResume drops resume-on-arrival: a landed page waits for
	// the next dispatch or quantum boundary instead of preempting.
	faultNoResume
	// faultLateQuantum ends every time slice one reference late.
	faultLateQuantum
)

// refScheduler is the state of one Schedule call. Every structure is a
// plain slice scan; nothing is cached between references.
type refScheduler struct {
	m       Machine
	cfg     sim.SchedulerConfig
	fault   schedFault
	procs   []*refProc
	ready   []int // FIFO of ready process indices
	kernel  *synth.Kernel
	rep     *stats.Report
	scratch []mem.Ref
}

// Schedule runs readers as a multiprogrammed workload on m, one Exec
// at a time, and returns m's report. It is the semantic reference for
// sim.Scheduler, written from the paper's rules (§4.2 round-robin
// quanta, §4.6 context switches on misses) as sim.Scheduler's
// documentation states them, and shares none of its code:
//
//   - process i runs reader i with PID i; processes start ready in
//     reader order;
//   - a process runs until its quantum of completed references
//     expires, then rotates to the back of the ready queue behind any
//     process whose page has arrived (one counted Switch);
//   - a blocking reference blocks its process until the page arrives
//     (one SwitchesOnMiss) and the next ready process fills in — unless
//     another page is already in flight, in which case the process
//     stalls in place; the blocked reference is retried first;
//   - the moment a blocked process's page has arrived it preempts the
//     running fill-in, which keeps priority at the head of the queue;
//   - with nothing ready the machine idles to the earliest arrival, and
//     a finished stream hands over without counting a Switch;
//   - every switch between two processes executes the context-switch
//     trace when cfg.InsertSwitchTrace is set, the thread-switch trace
//     for miss-induced switches under cfg.LightweightThreads.
//
// cfg.MaxRefs bounds the completed application references. cfg.Observer
// is ignored: observation never changes a report.
func Schedule(ctx context.Context, m Machine, readers []trace.Reader, cfg sim.SchedulerConfig) (*stats.Report, error) {
	return schedule(ctx, m, readers, cfg, noFault)
}

// schedule is Schedule with an optional seeded fault.
func schedule(ctx context.Context, m Machine, readers []trace.Reader, cfg sim.SchedulerConfig, fault schedFault) (*stats.Report, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("oracle: schedule needs at least one process")
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = trace.DefaultQuantum
	}
	if fault == faultLateQuantum {
		cfg.Quantum++
	}
	s := &refScheduler{
		m:     m,
		cfg:   cfg,
		fault: fault,
		// The switch-trace generator's seed offset is part of the
		// specification, like the machines' handler-trace offsets.
		kernel: synth.NewKernel(cfg.Seed + 9),
		rep:    m.Report(),
	}
	for i, r := range readers {
		s.procs = append(s.procs, &refProc{r: r, pid: mem.PID(i), slice: cfg.Quantum})
		s.ready = append(s.ready, i)
	}
	cur, ok := s.dispatch()
	if !ok {
		return s.rep, nil
	}
	var executed uint64
	for step := 0; ; step++ {
		if step%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return s.rep, err
			}
		}
		if cfg.MaxRefs > 0 && executed >= cfg.MaxRefs {
			return s.rep, nil
		}
		if w := s.firstArrived(); w >= 0 && s.fault != faultNoResume {
			s.procs[cur].state = refReady
			s.ready = append([]int{cur}, s.ready...)
			if err := s.switchTo(cur, w, true); err != nil {
				return s.rep, err
			}
			s.procs[w].state = refRunning
			cur = w
		}
		p := s.procs[cur]
		ref := p.retry
		if !p.blocked {
			next, err := p.r.Next()
			if errors.Is(err, io.EOF) {
				p.state = refFinished
				to, ok := s.dispatch()
				if !ok {
					return s.rep, nil
				}
				if err := s.switchTo(cur, to, false); err != nil {
					return s.rep, err
				}
				cur = to
				continue
			}
			if err != nil {
				return s.rep, err
			}
			ref = mem.Ref{PID: p.pid, Kind: next.Kind, Addr: next.Addr}
		}
		arrives, err := m.Exec(ref)
		if err != nil {
			return s.rep, err
		}
		if arrives != 0 {
			p.retry, p.blocked = ref, true
			if s.inFlight() {
				m.AdvanceTo(arrives)
				continue
			}
			p.state, p.arrives = refBlocked, arrives
			s.rep.SwitchesOnMiss++
			to, ok := s.dispatch()
			if !ok {
				return s.rep, fmt.Errorf("oracle: no process to run while a page is in flight")
			}
			if err := s.switchTo(cur, to, true); err != nil {
				return s.rep, err
			}
			cur = to
			continue
		}
		p.blocked = false
		executed++
		p.slice--
		if p.slice > 0 {
			continue
		}
		p.slice = cfg.Quantum
		s.admitArrived()
		if len(s.ready) == 0 {
			continue
		}
		p.state = refReady
		s.ready = append(s.ready, cur)
		to := s.pop()
		s.rep.Switches++
		if err := s.switchTo(cur, to, false); err != nil {
			return s.rep, err
		}
		cur = to
	}
}

// pop removes and runs the head of the ready queue.
func (s *refScheduler) pop() int {
	i := s.ready[0]
	s.ready = s.ready[1:]
	s.procs[i].state = refRunning
	return i
}

// dispatch admits arrived processes and runs the head of the ready
// queue, idling the machine to the next arrival while nothing is
// ready. ok is false once every process has finished.
func (s *refScheduler) dispatch() (int, bool) {
	for {
		s.admitArrived()
		if len(s.ready) > 0 {
			return s.pop(), true
		}
		var first mem.Cycles
		for _, p := range s.procs {
			if p.state == refBlocked && (first == 0 || p.arrives < first) {
				first = p.arrives
			}
		}
		if first == 0 {
			return -1, false
		}
		s.m.AdvanceTo(first)
	}
}

// admitArrived appends every blocked process whose page has landed to
// the ready queue, earliest arrival first, ties in process order.
func (s *refScheduler) admitArrived() {
	var landed []int
	for i, p := range s.procs {
		if p.state == refBlocked && p.arrives <= s.m.Now() {
			landed = append(landed, i)
		}
	}
	sort.SliceStable(landed, func(a, b int) bool {
		return s.procs[landed[a]].arrives < s.procs[landed[b]].arrives
	})
	for _, i := range landed {
		s.procs[i].state = refReady
		s.ready = append(s.ready, i)
	}
}

// firstArrived returns the blocked process whose page landed earliest,
// ties in process order, or -1 when no page has landed.
func (s *refScheduler) firstArrived() int {
	first := -1
	for i, p := range s.procs {
		if p.state == refBlocked && p.arrives <= s.m.Now() &&
			(first < 0 || p.arrives < s.procs[first].arrives) {
			first = i
		}
	}
	return first
}

// inFlight reports whether any process is waiting for a page.
func (s *refScheduler) inFlight() bool {
	for _, p := range s.procs {
		if p.state == refBlocked {
			return true
		}
	}
	return false
}

// switchTo charges the switch trace for handing the CPU from one
// process to another.
func (s *refScheduler) switchTo(from, to int, onMiss bool) error {
	if from == to || !s.cfg.InsertSwitchTrace {
		return nil
	}
	fp, tp := s.procs[from].pid, s.procs[to].pid
	if onMiss && s.cfg.LightweightThreads {
		s.scratch = s.kernel.AppendThreadSwitch(s.scratch[:0], fp, tp)
	} else {
		s.scratch = s.kernel.AppendContextSwitch(s.scratch[:0], fp, tp)
	}
	if err := s.m.ExecTrace(s.scratch, sim.ClassSwitch); err != nil {
		return fmt.Errorf("oracle: switch trace: %w", err)
	}
	return nil
}
