package sim

import (
	"fmt"
	"sort"

	"rampage/internal/checkpoint"
	"rampage/internal/core"
	"rampage/internal/dram"
	"rampage/internal/mem"
	"rampage/internal/trace"
)

// Snapshotter is a machine whose complete simulated state can be
// serialized and restored. A restored machine driven by a restored
// scheduler produces reports bit-identical to an uninterrupted run.
// CheckInvariants verifies the machine's structural invariants, which
// every captured state satisfies, so RestoreState ends with it.
type Snapshotter interface {
	EncodeState(*checkpoint.Enc)
	DecodeState(*checkpoint.Dec)
	CheckInvariants() error
}

// CaptureState serializes the machine and scheduler into one payload.
// It must be called after Run returns and before the machine is
// released; the scheduler's reference streams are not serialized — only
// their cursors are, because the synthetic generators are pure
// functions of their consumption count.
func CaptureState(m Machine, s *Scheduler) ([]byte, error) {
	snap, ok := m.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: machine %T does not support checkpointing", m)
	}
	e := checkpoint.NewEnc()
	snap.EncodeState(e)
	s.EncodeState(e)
	return e.Bytes(), nil
}

// RestoreState decodes a CaptureState payload into a freshly
// constructed machine and scheduler of the identical configuration.
// The next Run continues exactly where the captured run stopped. A
// restore reads no stream: captured columns and synthetic generators
// are checked against their cursors, and a refilled stream is advanced
// past its executed prefix only when its process next runs, so a
// restore that is the finished run reads nothing. A payload that
// decodes is then held to the machine's CheckInvariants, so a forged
// record whose every field passes its own checks still fails here
// when the fields disagree with each other.
func RestoreState(m Machine, s *Scheduler, payload []byte) error {
	snap, ok := m.(Snapshotter)
	if !ok {
		return fmt.Errorf("sim: machine %T does not support checkpointing", m)
	}
	d := checkpoint.NewDec(payload)
	snap.DecodeState(d)
	s.DecodeState(d)
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("sim: %d trailing bytes after machine state", d.Remaining())
	}
	if err := snap.CheckInvariants(); err != nil {
		return fmt.Errorf("sim: restored state: %w", err)
	}
	return nil
}

// EncodeState serializes the scheduler: the cumulative reference count,
// the switch-trace kernel RNG, per-process scheduling state and stream
// cursors, and the ready queue in FIFO order. Refill windows are NOT
// serialized: the cursor counts only executed references, so a
// repositioned stream regenerates any unexecuted reference (a blocked
// fault retry or buffered read-ahead) on the first fetch after resume.
func (s *Scheduler) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkScheduler)
	e.U64(s.executed)
	e.U64(s.kernel.RNGState())
	e.U64(uint64(s.wakeAt))
	running := int32(-1)
	for i, p := range s.procs {
		if p.state == procRunning {
			running = int32(i)
		}
	}
	e.I32(running)
	e.U32(uint32(len(s.procs)))
	for _, p := range s.procs {
		e.U8(uint8(p.state))
		e.U64(uint64(p.readyAt))
		e.U64(p.sliceLeft)
		e.U64(p.done)
	}
	e.U32(uint32(s.queue.len()))
	for i := 0; i < s.queue.n; i++ {
		e.I32(int32(s.queue.buf[(s.queue.head+i)%len(s.queue.buf)]))
	}
}

// DecodeState restores state captured by EncodeState into a scheduler
// built over fresh readers of the same workload, repositioning each
// stream to its cursor (see repositionReader), and arms the resume
// entry path. It fails on a stream that reports a length shorter than
// its cursor.
func (s *Scheduler) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkScheduler)
	s.executed = d.U64()
	s.kernel.SetRNGState(d.U64())
	s.wakeAt = mem.Cycles(d.U64())
	running := d.I32()
	n := d.U32()
	if d.Err() == nil && int(n) != len(s.procs) {
		d.Fail("sim: checkpoint has %d processes, scheduler has %d", n, len(s.procs))
	}
	if d.Err() != nil {
		return
	}
	for _, p := range s.procs {
		p.state = procState(d.U8())
		p.readyAt = mem.Cycles(d.U64())
		p.sliceLeft = d.U64()
		p.done = d.U64()
		if p.src != nil {
			// Drop any refill read-ahead: the cursor counts executed
			// references only.
			p.win.Kinds, p.win.Addrs, p.rdErr, p.skip = p.win.Kinds[:0], p.win.Addrs[:0], nil, 0
			p.col.Reset()
		}
	}
	qn := d.U32()
	if d.Err() == nil && int(qn) > len(s.procs) {
		d.Fail("sim: ready queue length %d exceeds %d processes", qn, len(s.procs))
	}
	if d.Err() != nil {
		return
	}
	s.queue.head, s.queue.n = 0, 0
	for i := uint32(0); i < qn; i++ {
		v := d.I32()
		if d.Err() != nil {
			return
		}
		if v < 0 || int(v) >= len(s.procs) {
			d.Fail("sim: ready queue entry %d out of range", v)
			return
		}
		s.queue.pushBack(int(v))
	}
	if running < -1 || int(running) >= len(s.procs) {
		d.Fail("sim: running process %d out of range", running)
		return
	}
	if running >= 0 && s.procs[running].state != procRunning {
		d.Fail("sim: process %d marked running but has state %d", running, s.procs[running].state)
		return
	}
	for i, p := range s.procs {
		if err := s.repositionReader(p); err != nil {
			d.Fail("sim: repositioning process %d: %v", i, err)
			return
		}
	}
	s.resumed = true
	s.resumeCur = int(running)
}

// repositionReader positions a fresh reader at the p.done references
// the captured run already executed. Captured columns skip in O(1). A
// refilled stream is not read here: the process discards the prefix on
// its next refill, which is exact because the generators produce
// references as a pure function of consumption count. A stream that
// reports its length (every generator does) is checked against the
// cursor now, so a short one fails the restore; a short stream of
// unknown length fails the process's next refill.
func (s *Scheduler) repositionReader(p *proc) error {
	if p.done == 0 {
		return nil
	}
	if p.src == nil {
		if rem := p.col.Remaining(); rem < p.done {
			return fmt.Errorf("stream has %d references, cursor wants %d", rem, p.done)
		}
		p.col.Skip(int(p.done))
		return nil
	}
	if sized, ok := p.src.(interface{ Remaining() uint64 }); ok {
		if rem := sized.Remaining(); rem < p.done {
			return fmt.Errorf("stream has %d references, cursor wants %d", rem, p.done)
		}
	}
	p.skip = p.done
	return nil
}

// discard reads and drops the next n references of r through the
// scratch columns kinds and addrs, with trace.ReadColumns.
func discard(r trace.Reader, n uint64, kinds []mem.RefKind, addrs []mem.VAddr) error {
	for left := n; left > 0; {
		want := uint64(len(kinds))
		if want > left {
			want = left
		}
		got, err := trace.ReadColumns(r, kinds[:want], addrs[:want])
		left -= uint64(got)
		if err != nil {
			return fmt.Errorf("stream ended %d references short of cursor %d: %w", left, n, err)
		}
		if got == 0 {
			return fmt.Errorf("stream stalled %d references short of cursor %d", left, n)
		}
	}
	return nil
}

// EncodeState serializes the baseline machine: both L1 sides, the L2
// (and victim buffer when attached), the TLB, the DRAM-resident page
// table, the handler-trace kernel RNG, the report and the DRAM device.
func (b *Baseline) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkBaseline)
	b.l1.inst.EncodeState(e)
	b.l1.data.EncodeState(e)
	b.l2.EncodeState(e)
	e.Bool(b.victim != nil)
	if b.victim != nil {
		b.victim.EncodeState(e)
	}
	b.tlb.EncodeState(e)
	b.pt.EncodeState(e)
	e.U64(b.kernel.RNGState())
	b.rep.EncodeState(e)
	dram.EncodeDeviceState(e, b.cfg.DRAM)
}

// DecodeState restores state captured by EncodeState, in place: the
// fused fast-path views alias the live cache and TLB columns, so decode
// copies into them rather than replacing them.
func (b *Baseline) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkBaseline)
	b.l1.inst.DecodeState(d)
	b.l1.data.DecodeState(d)
	b.l2.DecodeState(d)
	hasVictim := d.Bool()
	if d.Err() == nil && hasVictim != (b.victim != nil) {
		d.Fail("sim: checkpoint victim-cache presence %t does not match machine %t", hasVictim, b.victim != nil)
	}
	if b.victim != nil && d.Err() == nil {
		b.victim.DecodeState(d)
	}
	b.tlb.DecodeState(d, b.pt.Config().Frames)
	b.pt.DecodeState(d)
	b.kernel.SetRNGState(d.U64())
	b.rep.DecodeState(d)
	dram.DecodeDeviceState(d, b.cfg.DRAM)
}

// EncodeState serializes the RAMpage machine: the L1 pair, the SRAM
// main memory, the handler-trace kernel RNG, the report, the Rambus
// channel occupancy, the in-flight page locks and the prefetch arrival
// map (in sorted address order, for determinism), and the DRAM device.
func (r *RAMpage) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkRAMpage)
	r.encodeRAMpage(e)
}

func (r *RAMpage) encodeRAMpage(e *checkpoint.Enc) {
	r.l1.inst.EncodeState(e)
	r.l1.data.EncodeState(e)
	r.mm.EncodeState(e)
	e.U64(r.kernel.RNGState())
	r.rep.EncodeState(e)
	e.U64(uint64(r.chanFreeAt))
	e.U32(uint32(len(r.inFlight)))
	for _, p := range r.inFlight {
		e.U64(uint64(p.page))
		e.U64(uint64(p.ready))
	}
	addrs := make([]mem.PAddr, 0, len(r.pending))
	for a := range r.pending {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.U32(uint32(len(addrs)))
	for _, a := range addrs {
		e.U64(uint64(a))
		e.U64(uint64(r.pending[a]))
	}
	dram.EncodeDeviceState(e, r.cfg.DRAM)
}

// DecodeState restores state captured by EncodeState, in place (the
// fast-path views alias the live columns).
func (r *RAMpage) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkRAMpage)
	r.decodeRAMpage(d)
}

func (r *RAMpage) decodeRAMpage(d *checkpoint.Dec) {
	r.l1.inst.DecodeState(d)
	r.l1.data.DecodeState(d)
	r.mm.DecodeState(d)
	r.kernel.SetRNGState(d.U64())
	r.rep.DecodeState(d)
	r.chanFreeAt = mem.Cycles(d.U64())
	nf := d.Count(16)
	if d.Err() != nil {
		return
	}
	r.inFlight = r.inFlight[:0]
	for i := uint32(0); i < nf && d.Err() == nil; i++ {
		page := mem.PAddr(d.U64())
		ready := mem.Cycles(d.U64())
		r.inFlight = append(r.inFlight, inFlightPage{page: page, ready: ready})
	}
	np := d.Count(16)
	if d.Err() != nil {
		return
	}
	r.pending = make(map[mem.PAddr]mem.Cycles, np)
	for i := uint32(0); i < np && d.Err() == nil; i++ {
		a := mem.PAddr(d.U64())
		r.pending[a] = mem.Cycles(d.U64())
	}
	dram.DecodeDeviceState(d, r.cfg.DRAM)
}

// EncodeState serializes the adaptive machine: the current SRAM
// geometry (the controller may have resized away from the constructed
// page size), the full RAMpage state at that geometry, and the
// hill-climbing controller's state.
func (a *AdaptiveRAMpage) EncodeState(e *checkpoint.Enc) {
	e.Marker(checkpoint.MarkAdaptive)
	e.U64(a.RAMpage.cfg.PageBytes)
	e.U64(a.RAMpage.cfg.SRAMBytes)
	a.encodeRAMpage(e)
	e.U64(a.epochStart)
	e.U64(uint64(a.epochCycles))
	e.U64(a.lastTLBRefs)
	e.U64(uint64(a.lastDRAMTime))
	e.U64(uint64(a.lastIdle))
	e.F64(a.prevCost)
	e.I32(int32(a.lastMove))
	e.Bool(a.skip)
	e.I32(int32(a.hold))
	e.I32(int32(a.holdCur))
}

// DecodeState restores state captured by EncodeState. When the captured
// geometry differs from the constructed one, the SRAM main memory is
// rebuilt at the captured geometry first — directly, with no simulated
// resize cost, since the captured run already paid it — and the cached
// fast-path views are refreshed. A geometry the controller cannot reach
// (a page size outside its bounds, or an SRAM capacity other than the
// configured one for that page size) fails the decode before anything
// is built, so a forged record cannot size the rebuilt memory.
func (a *AdaptiveRAMpage) DecodeState(d *checkpoint.Dec) {
	d.Marker(checkpoint.MarkAdaptive)
	pageBytes := d.U64()
	sramBytes := d.U64()
	if d.Err() != nil {
		return
	}
	if pageBytes != a.RAMpage.cfg.PageBytes || sramBytes != a.RAMpage.cfg.SRAMBytes {
		if pageBytes < a.cfg.MinPage || pageBytes > a.cfg.MaxPage || sramBytes != a.cfg.SRAMBytesFor(pageBytes) {
			d.Fail("sim: checkpoint geometry (%d B pages, %d B SRAM) is not one the controller reaches", pageBytes, sramBytes)
			return
		}
		mm, err := core.New(core.Config{
			TotalBytes: sramBytes,
			PageBytes:  pageBytes,
			TLBEntries: a.RAMpage.cfg.TLBEntries,
			TLBAssoc:   a.RAMpage.cfg.TLBAssoc,
			Seed:       a.RAMpage.cfg.Seed + 6,
			Policy:     a.RAMpage.cfg.Policy,
		})
		if err != nil {
			d.Fail("sim: rebuilding SRAM at checkpoint geometry: %v", err)
			return
		}
		a.RAMpage.cfg.PageBytes = pageBytes
		a.RAMpage.cfg.SRAMBytes = sramBytes
		a.setMemory(mm)
	}
	a.decodeRAMpage(d)
	a.epochStart = d.U64()
	a.epochCycles = mem.Cycles(d.U64())
	a.lastTLBRefs = d.U64()
	a.lastDRAMTime = mem.Cycles(d.U64())
	a.lastIdle = mem.Cycles(d.U64())
	a.prevCost = d.F64()
	a.lastMove = int(d.I32())
	a.skip = d.Bool()
	a.hold = int(d.I32())
	a.holdCur = int(d.I32())
}
