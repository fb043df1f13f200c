package oracle

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/trace"
)

// Divergence describes the first point at which a subject machine's
// behaviour departed from the oracle's. A nil *Divergence means the two
// machines agreed reference for reference.
type Divergence struct {
	// Index is the position in the replayed trace of the reference at
	// (or after) which the machines disagreed; -1 when the divergence
	// was only visible in the final report.
	Index int
	// Ref is the reference at Index (zero when Index is -1).
	Ref mem.Ref
	// Where names the disagreeing channel: "error", "blockUntil",
	// "consumed", or "report".
	Where string
	// Field is the first differing stats.Report field when Where is
	// "report".
	Field string
	// OracleVal and SubjectVal are the disagreeing values, formatted.
	OracleVal  string
	SubjectVal string
	// OracleReport and SubjectReport are snapshots taken at the
	// divergence point.
	OracleReport  stats.Report
	SubjectReport stats.Report
	// Context is the oracle machine's state summary at the divergence
	// point, when the machine provides one.
	Context string
}

// String renders the pointed divergence report.
func (d *Divergence) String() string {
	if d == nil {
		return "<no divergence>"
	}
	var b strings.Builder
	if d.Index >= 0 {
		fmt.Fprintf(&b, "divergence at reference %d (%s): %s", d.Index, d.Ref, d.Where)
	} else {
		fmt.Fprintf(&b, "divergence in final state: %s", d.Where)
	}
	if d.Field != "" {
		fmt.Fprintf(&b, " field %s", d.Field)
	}
	fmt.Fprintf(&b, "\n  oracle:  %s\n  subject: %s", d.OracleVal, d.SubjectVal)
	if d.Context != "" {
		fmt.Fprintf(&b, "\n  oracle state: %s", d.Context)
	}
	fmt.Fprintf(&b, "\n  oracle cycles %d, subject cycles %d",
		d.OracleReport.Cycles, d.SubjectReport.Cycles)
	return b.String()
}

// stateSummarizer is implemented by the oracle machines; divergence
// reports include the summary when available.
type stateSummarizer interface{ StateSummary() string }

// summarize extracts a state summary from a machine if it offers one.
func summarize(m Machine) string {
	if s, ok := m.(stateSummarizer); ok {
		return s.StateSummary()
	}
	return ""
}

// compareReports returns the name and values of the first differing
// field, or "" when the reports are identical. The fast path is one
// comparable-struct equality; reflection runs only on mismatch.
func compareReports(o, s *stats.Report) (field, oval, sval string) {
	if *o == *s {
		return "", "", ""
	}
	vo := reflect.ValueOf(*o)
	vs := reflect.ValueOf(*s)
	t := vo.Type()
	for i := 0; i < t.NumField(); i++ {
		fo, fs := vo.Field(i), vs.Field(i)
		if fo.Interface() != fs.Interface() {
			return t.Field(i).Name, fmt.Sprint(fo.Interface()), fmt.Sprint(fs.Interface())
		}
	}
	return "report", fmt.Sprint(*o), fmt.Sprint(*s) // unreachable: *o != *s
}

// maxRetries bounds the block-retry loop on a single reference. A
// switch-on-miss fault retries once after its page arrives; anything
// deeper indicates a livelock in one of the machines.
const maxRetries = 8

// Lockstep replays refs through the oracle and the subject one
// reference at a time, comparing errors, blocking times and the full
// report after every reference. It returns the first divergence, or nil
// when the machines agree over the whole trace.
func Lockstep(oracle, subject Machine, refs []mem.Ref) *Divergence {
	div := func(i int, where, oval, sval string) *Divergence {
		return &Divergence{
			Index: i, Ref: refs[i], Where: where,
			OracleVal: oval, SubjectVal: sval,
			OracleReport:  *oracle.Report(),
			SubjectReport: *subject.Report(),
			Context:       summarize(oracle),
		}
	}
	for i, ref := range refs {
		for retry := 0; ; retry++ {
			if retry > maxRetries {
				return div(i, "retry-loop", "reference never completed", "reference never completed")
			}
			ob, oerr := oracle.Exec(ref)
			sb, serr := subject.Exec(ref)
			if (oerr != nil) != (serr != nil) {
				return div(i, "error", fmt.Sprint(oerr), fmt.Sprint(serr))
			}
			if oerr != nil {
				return nil // both rejected the reference: agreement
			}
			if ob != sb {
				return div(i, "blockUntil", fmt.Sprint(ob), fmt.Sprint(sb))
			}
			if f, ov, sv := compareReports(oracle.Report(), subject.Report()); f != "" {
				d := div(i, "report", ov, sv)
				d.Field = f
				return d
			}
			if ob == 0 {
				break
			}
			// Both blocked until the same cycle: wait and retry the same
			// reference, exactly as the scheduler would with one process.
			oracle.AdvanceTo(ob)
			subject.AdvanceTo(sb)
		}
	}
	if f, ov, sv := compareReports(oracle.Report(), subject.Report()); f != "" {
		return &Divergence{
			Index: -1, Where: "report", Field: f,
			OracleVal: ov, SubjectVal: sv,
			OracleReport:  *oracle.Report(),
			SubjectReport: *subject.Report(),
			Context:       summarize(oracle),
		}
	}
	return nil
}

// LockstepBatch replays refs through the subject's ExecBatchColumnar
// path in windows of up to batchSize references — each window one
// process's run of consecutive references, as the scheduler hands them
// over — driving the oracle per-reference over each consumed prefix,
// and compares the reports at every window boundary. It exercises the
// batched fast paths the per-reference Lockstep never reaches.
func LockstepBatch(oracle Machine, subject sim.Machine, refs []mem.Ref, batchSize int) *Divergence {
	if batchSize < 1 {
		batchSize = 64
	}
	kinds := make([]mem.RefKind, len(refs))
	addrs := make([]mem.VAddr, len(refs))
	for i, ref := range refs {
		kinds[i], addrs[i] = ref.Kind, ref.Addr
	}
	div := func(i int, where, oval, sval string) *Divergence {
		d := &Divergence{
			Index: i, Where: where,
			OracleVal: oval, SubjectVal: sval,
			OracleReport:  *oracle.Report(),
			SubjectReport: *subject.Report(),
			Context:       summarize(oracle),
		}
		if i >= 0 && i < len(refs) {
			d.Ref = refs[i]
		}
		return d
	}
	pos := 0
	retries := 0
	for pos < len(refs) {
		end := min(pos+batchSize, len(refs))
		pid := refs[pos].PID
		for k := pos + 1; k < end; k++ {
			if refs[k].PID != pid {
				end = k
				break
			}
		}
		consumed, sb, serr := subject.ExecBatchColumnar(pid, kinds[pos:end], addrs[pos:end])
		// The oracle executes the consumed prefix per reference; each of
		// those completed in the subject, so the oracle must complete
		// them too.
		for j := 0; j < consumed; j++ {
			ob, oerr := oracle.Exec(refs[pos+j])
			if oerr != nil {
				return div(pos+j, "error", fmt.Sprint(oerr), "<executed>")
			}
			if ob != 0 {
				return div(pos+j, "blockUntil", fmt.Sprint(ob), "0 (executed in batch)")
			}
		}
		pos += consumed
		if consumed > 0 {
			retries = 0
		}
		if serr != nil {
			// The subject rejected refs[pos]; the oracle must reject it
			// too.
			_, oerr := oracle.Exec(refs[pos])
			if oerr == nil {
				return div(pos, "error", "<executed>", fmt.Sprint(serr))
			}
			return nil // both rejected the reference: agreement
		}
		if sb != 0 {
			// The subject blocked at refs[pos]: the oracle must block at
			// the same cycle. Then both wait and the window retries.
			ob, oerr := oracle.Exec(refs[pos])
			if oerr != nil {
				return div(pos, "error", fmt.Sprint(oerr), "<blocked>")
			}
			if ob != sb {
				return div(pos, "blockUntil", fmt.Sprint(ob), fmt.Sprint(sb))
			}
			oracle.AdvanceTo(ob)
			subject.AdvanceTo(sb)
			retries++
			if retries > maxRetries {
				return div(pos, "retry-loop", "reference never completed", "reference never completed")
			}
		}
		if f, ov, sv := compareReports(oracle.Report(), subject.Report()); f != "" {
			d := div(pos, "report", ov, sv)
			d.Field = f
			return d
		}
	}
	if f, ov, sv := compareReports(oracle.Report(), subject.Report()); f != "" {
		d := div(-1, "report", ov, sv)
		d.Field = f
		return d
	}
	return nil
}

// Feed selects how DiffRun drives its subject machine.
type Feed uint8

const (
	// PerRef drives the subject with the reference scheduler, one Exec
	// at a time, exactly like the oracle: only the machines differ.
	PerRef Feed = iota
	// Columns runs the subject under sim.Scheduler over captured column
	// streams — the zero-copy loop every sweep cell executes.
	Columns
	// Refill runs the subject under sim.Scheduler over SliceReaders, so
	// every window passes through the scheduler's refill buffer.
	Refill
)

// DiffRun runs the same multiprogrammed workload — context-switch
// traces, quantum boundaries, switch-on-miss blocking and all — on the
// oracle under the reference scheduler (Schedule) and on the subject
// as feed selects, and compares the final reports. streams[i] is
// process i's reference stream (its PIDs are replaced by i), re-read
// from the slice for each run. The oracle side never touches
// sim.Scheduler, so a divergence under Columns or Refill that PerRef
// does not show is a scheduling or batching fault, not a machine one.
func DiffRun(oracle Machine, subject sim.Machine, streams [][]mem.Ref, cfg sim.SchedulerConfig, feed Feed) (*Divergence, error) {
	return diffRun(oracle, subject, streams, cfg, feed, noFault)
}

// diffRun is DiffRun with a seeded fault in the oracle's scheduler.
func diffRun(oracle Machine, subject sim.Machine, streams [][]mem.Ref, cfg sim.SchedulerConfig, feed Feed, fault schedFault) (*Divergence, error) {
	rows := func() []trace.Reader {
		readers := make([]trace.Reader, len(streams))
		for i, s := range streams {
			readers[i] = trace.NewSliceReader(s)
		}
		return readers
	}
	orep, oerr := schedule(context.Background(), oracle, rows(), cfg, fault)
	var (
		srep *stats.Report
		serr error
	)
	switch feed {
	case PerRef:
		srep, serr = Schedule(context.Background(), subject, rows(), cfg)
	case Columns, Refill:
		readers := rows()
		if feed == Columns {
			for i, s := range streams {
				buf := &trace.ColumnarBuffer{}
				for _, ref := range s {
					buf.Append(ref.Kind, ref.Addr)
				}
				readers[i] = trace.NewColumnarReader(buf)
			}
		}
		sched, err := sim.NewScheduler(subject, readers, cfg)
		if err != nil {
			return nil, err
		}
		srep, serr = sched.Run(context.Background())
	default:
		return nil, fmt.Errorf("oracle: unknown feed %d", feed)
	}
	if (oerr != nil) != (serr != nil) {
		return &Divergence{
			Index: -1, Where: "error",
			OracleVal: fmt.Sprint(oerr), SubjectVal: fmt.Sprint(serr),
			Context: summarize(oracle),
		}, nil
	}
	if oerr != nil {
		return nil, fmt.Errorf("oracle: both runs failed: %w", oerr)
	}
	if f, ov, sv := compareReports(orep, srep); f != "" {
		return &Divergence{
			Index: -1, Where: "report", Field: f,
			OracleVal: ov, SubjectVal: sv,
			OracleReport:  *orep,
			SubjectReport: *srep,
			Context:       summarize(oracle),
		}, nil
	}
	return nil, nil
}
