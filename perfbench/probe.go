package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rampage/internal/harness"
	"rampage/internal/jobs"
	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/trace"
)

// probe times every layer's public calls on the workload's own inputs:
// generation and capture of the plan's seed, the columnar scheduler
// path per machine, the row path per run point (over the first
// rowShare-th of each stream), the TLB, cache and page-table fault path
// under all five policies, checkpoint capture and restore and the
// harness fold of the first cold request, and disk-store put, get and
// re-index over the first round's documents. Every probe report is
// checked: against the served cell for the same point where the plan
// served one, and the row path's against the columnar path's.
func (s *served) probe(ctx context.Context, tr *tracer, out *outcome) (map[string]float64, error) {
	layers := make(map[string]float64)
	cfg, err := s.config(s.plan.seed)
	if err != nil {
		return nil, err
	}
	g, err := generate(tr, cfg)
	if err != nil {
		return nil, err
	}
	for k, v := range g.metrics() {
		layers[k] = v
	}
	var builds []float64
	for _, spec := range columnarPoints {
		st, err := timeSim(ctx, tr, cfg, spec, g.columnarReaders)
		if err != nil {
			return nil, err
		}
		builds = append(builds, ms(st.build))
		layers["sim.columnar_ns_per_ref."+spec.System.String()] = float64(st.run.Nanoseconds()) / float64(totalRefs(st.report))
		if want := s.servedCell(spec); want != nil {
			probeMatches(out, specLabel(spec), st.report, want)
		}
	}
	rows, err := s.probeRows(ctx, tr, out, cfg, g)
	if err != nil {
		return nil, err
	}
	for k, v := range rows.layers {
		layers[k] = v
	}
	layers["sim.build_ms"] = median(append(builds, rows.builds...))
	comp, err := componentProbes(tr, cfg, g, s.plan.pageBytes, policies)
	if err != nil {
		return nil, err
	}
	for k, v := range comp {
		layers[k] = v
	}
	ck, err := s.probeCheckpoints(ctx, tr, out, g)
	if err != nil {
		return nil, err
	}
	for k, v := range ck {
		layers[k] = v
	}
	disk, err := s.probeDisk(tr, out)
	if err != nil {
		return nil, err
	}
	for k, v := range disk {
		layers[k] = v
	}
	return layers, nil
}

// servedCell is the first round's cold cell for spec on the plan's
// seed, or nil if the plan served none.
func (s *served) servedCell(spec harness.RunSpec) []byte {
	for i, req := range s.plan.cold {
		if req.seed != s.plan.seed || req.exp == nil {
			continue
		}
		if c, ok := s.coldCells[i][cellKey{"", spec.System.String(), spec.IssueMHz, spec.SizeBytes}]; ok {
			return c
		}
	}
	return nil
}

// rowShare is the fraction of each process's stream the row-path probe
// replays: enough for a steady ns/ref, small enough to keep the row
// copy (16 bytes a reference) well under the columnar capture.
const rowShare = 4

type rowProbe struct {
	layers map[string]float64
	builds []float64
}

// probeRows times the row scheduler path for every run point over
// SliceReaders of pre-generated references; each report must
// byte-equal the columnar path's over the same streams.
func (s *served) probeRows(ctx context.Context, tr *tracer, out *outcome, cfg harness.Config, g generated) (rowProbe, error) {
	rp := rowProbe{layers: make(map[string]float64)}
	cols := make([]*trace.ColumnarBuffer, len(g.bufs))
	rows := make([][]mem.Ref, len(g.bufs))
	for i, b := range g.bufs {
		n := b.Len() / rowShare
		cols[i] = &trace.ColumnarBuffer{PID: b.PID, Kinds: b.Kinds[:n], Addrs: b.Addrs[:n]}
		rows[i] = make([]mem.Ref, n)
		for j := range rows[i] {
			rows[i][j] = b.Ref(j)
		}
	}
	rowReaders := func() []trace.Reader {
		out := make([]trace.Reader, len(rows))
		for i, refs := range rows {
			out[i] = trace.NewSliceReader(refs)
		}
		return out
	}
	colReaders := func() []trace.Reader {
		out := make([]trace.Reader, len(cols))
		for i, b := range cols {
			out[i] = trace.NewColumnarReader(b)
		}
		return out
	}
	for _, p := range runPoints {
		st, err := timeSim(ctx, tr, cfg, p.spec, rowReaders)
		if err != nil {
			return rp, err
		}
		rp.builds = append(rp.builds, ms(st.build))
		rp.layers["sim.row_ns_per_ref."+metricLabel(p.label)] = float64(st.run.Nanoseconds()) / float64(totalRefs(st.report))
		ref, err := timeSim(ctx, tr, cfg, p.spec, colReaders)
		if err != nil {
			return rp, err
		}
		probeMatches(out, specLabel(p.spec)+" row vs columnar", st.report, compactReport(ref.report))
	}
	return rp, nil
}

// probeCheckpoints captures and restores each cell of the first cold
// request over captured columns, as the server's sweeps replay them,
// and folds the cells into the request's document, which must
// byte-equal the served one.
func (s *served) probeCheckpoints(ctx context.Context, tr *tracer, out *outcome, g generated) (map[string]float64, error) {
	req := s.plan.cold[0]
	cfg, err := s.config(req.seed)
	if err != nil {
		return nil, err
	}
	readers := g.columnarReaders
	if req.seed != s.plan.seed {
		return nil, fmt.Errorf("first cold request has seed %d, the probes' is %d", req.seed, s.plan.seed)
	}
	var specs []harness.RunSpec
	var sh harness.ExperimentShape
	if req.exp != nil {
		if sh, err = harness.ShapeOf(req.exp.id, req.exp.rates, req.exp.sizes); err != nil {
			return nil, err
		}
		specs = sh.CellSpecs()
	} else {
		specs = []harness.RunSpec{req.run.spec}
	}
	var captures, restores, kbs []float64
	var reports []*stats.Report
	for _, spec := range specs {
		c, err := checkpointCell(ctx, tr, cfg, spec, readers)
		if err != nil {
			return nil, err
		}
		captures = append(captures, ms(c.capture))
		restores = append(restores, ms(c.restore))
		kbs = append(kbs, float64(c.bytes)/1024)
		reports = append(reports, c.report)
		probeMatches(out, specLabel(spec)+" restored", c.restored, compactReport(c.report))
	}
	layers := map[string]float64{
		"checkpoint.capture_ms":  median(captures),
		"checkpoint.restore_ms":  median(restores),
		"checkpoint.kb_per_cell": median(kbs),
	}

	// Fold: reports -> ReportJSON -> document -> WriteJSON.
	var folds []float64
	var doc bytes.Buffer
	for i := 0; i < 20; i++ {
		err := tr.do("harness.fold", 0, goldenDoc(req), func(int) error {
			t0 := time.Now()
			doc.Reset()
			if req.run != nil {
				err := harness.WriteJSON(&doc, harness.NewRunDoc(reports[0], nil))
				folds = append(folds, ms(time.Since(t0)))
				return err
			}
			cells := make([]harness.ReportJSON, len(reports))
			for k, r := range reports {
				cells[k] = harness.NewReportJSON(r)
			}
			d, err := sh.Doc(cells)
			if err != nil {
				return err
			}
			err = harness.WriteJSON(&doc, d)
			folds = append(folds, ms(time.Since(t0)))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	out.Attempted++
	if !bytes.Equal(doc.Bytes(), s.coldDoc[0]) {
		out.fail("probe: folded %s document differs from the served cold document", req.body)
	}
	layers["harness.fold_ms"] = median(folds)
	layers["harness.doc_kb"] = float64(doc.Len()) / 1024
	return layers, nil
}

// probeDisk puts and gets every cold document of the first round in a
// store of its own, then re-opens the last round's populated store.
func (s *served) probeDisk(tr *tracer, out *outcome) (map[string]float64, error) {
	dir := filepath.Join(s.dir, "probe-store")
	defer os.RemoveAll(dir)
	store, err := jobs.NewDiskStore(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	var puts, gets, reindex []float64
	for i, d := range s.coldDoc {
		key := fmt.Sprintf("probe-%d", i)
		_ = tr.do("jobs.disk_put", 0, key, func(int) error {
			t0 := time.Now()
			store.Put(key, d)
			puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
			return nil
		})
	}
	for i, d := range s.coldDoc {
		key := fmt.Sprintf("probe-%d", i)
		_ = tr.do("jobs.disk_get", 0, key, func(int) error {
			t0 := time.Now()
			got, ok := store.Get(key)
			gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
			out.Attempted++
			if !ok || !bytes.Equal(got, d) {
				out.fail("probe: disk store lost document %s", key)
			}
			return nil
		})
	}
	// The server's own store, populated by the last round's jobs and
	// idle since the last drain.
	for i := 0; i < 5; i++ {
		err := tr.do("jobs.reindex", 0, "", func(int) error {
			t0 := time.Now()
			re, err := jobs.NewDiskStore(s.store, 0, nil)
			reindex = append(reindex, ms(time.Since(t0)))
			if err == nil && re.Len() < len(s.coldDoc) {
				err = fmt.Errorf("re-index found %d documents, want at least %d", re.Len(), len(s.coldDoc))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"jobs.disk_put_us": median(puts),
		"jobs.disk_get_us": median(gets),
		"jobs.reindex_ms":  median(reindex),
	}, nil
}

// checkpointTiming is one cell run to completion, captured, and
// restored into a fresh machine and scheduler.
type checkpointTiming struct {
	capture, restore time.Duration
	bytes            int
	report, restored *stats.Report
}

func checkpointCell(ctx context.Context, tr *tracer, cfg harness.Config, spec harness.RunSpec, readers func() []trace.Reader) (checkpointTiming, error) {
	var c checkpointTiming
	tag := specLabel(spec)
	fresh := func() (sim.Machine, *sim.Scheduler, error) {
		m, err := buildMachine(cfg, spec)
		if err != nil {
			return nil, nil, err
		}
		sched, err := newScheduler(cfg, spec, m, readers())
		return m, sched, err
	}
	m, sched, err := fresh()
	if err != nil {
		return c, err
	}
	defer release(m)
	err = tr.do("sim.run", 0, tag, func(int) error {
		c.report, err = sched.Run(ctx)
		return err
	})
	if err != nil {
		return c, err
	}
	var payload []byte
	err = tr.do("checkpoint.capture", 0, tag, func(int) error {
		t0 := time.Now()
		payload, err = sim.CaptureState(m, sched)
		c.capture = time.Since(t0)
		return err
	})
	if err != nil {
		return c, err
	}
	c.bytes = len(payload)
	m2, sched2, err := fresh()
	if err != nil {
		return c, err
	}
	defer release(m2)
	err = tr.do("checkpoint.restore", 0, tag, func(int) error {
		t0 := time.Now()
		err := sim.RestoreState(m2, sched2, payload)
		c.restore = time.Since(t0)
		return err
	})
	c.restored = m2.Report()
	return c, err
}
