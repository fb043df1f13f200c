package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rampage/internal/harness"
	"rampage/internal/jobs"
	"rampage/internal/server"
)

// served drives the real HTTP handler on a loopback listener with one
// closed-loop client that keeps one job in flight. Every workload runs
// the same rounds over its own plan; each round starts a fresh server
// over an empty store and walks four tiers: the plan's cold requests,
// the warm requests whose every cell restores a complete checkpoint of
// a cold job, exact resubmissions answered from the memory cache, and
// the same resubmissions answered from the disk store after the server
// is drained and rebuilt over it.
type served struct {
	plan   plan
	dir    string // scratch root: the round's stores and the probe's
	store  string // the current round's disk store
	srvMu  sync.Mutex
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
	// wantBench is, per request seed, how many application references
	// every cell of that seed must execute.
	wantBench map[uint64]uint64
	golden    map[cellKey][]byte // nil unless a request has the goldens' seed
	// coldDoc and coldCells are the first round's cold documents and
	// their cells, in plan order.
	coldDoc   [][]byte
	coldCells []map[cellKey][]byte
	// counters sums /metricsz counters over every measured server.
	counters map[string]uint64
}

// serverConfig is rampage-server's flag defaults plus one sweep worker
// (the simulation runs on one CPU everywhere) and a disk store.
func serverConfig(dir string) server.Config {
	return server.Config{
		Workers:         1,
		QueueDepth:      8,
		CacheBytes:      256 << 20,
		SweepParallel:   1,
		CheckpointBytes: 64 << 20,
		DiskDir:         dir,
		DiskBytes:       1024 << 20,
	}
}

func newServed(p plan) *served {
	return &served{plan: p, wantBench: make(map[uint64]uint64), counters: make(map[string]uint64)}
}

// config is the harness configuration the service runs a job of the
// plan's scale on, with the given seed.
func (s *served) config(seed uint64) (harness.Config, error) {
	cfg, err := harness.ConfigForScale(s.plan.scale)
	cfg.Seed = seed
	cfg.Workers = serverConfig("").SweepParallel
	return cfg, err
}

// handler forwards to the current server, so a rebuilt server takes
// over the same listener.
func (s *served) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.srvMu.Lock()
	h := s.srv.Handler()
	s.srvMu.Unlock()
	h.ServeHTTP(w, r)
}

// setup prepares what the plan's jobs read, builds the server and
// runs the plan's fill jobs. The harness workload cache holds eight
// workloads and never evicts: the sweep plan puts its seed's workload
// there, and the service plan fills it with other seeds, so that every
// measured job regenerates its workload, as on any server that has run
// for a while.
func (s *served) setup(ctx context.Context, tr *tracer) error {
	s.dir = filepath.Join(outDir, fmt.Sprintf("%s-%d", s.plan.name, os.Getpid()))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	err := tr.do("harness.validate", 0, "setup", func(int) error { return s.learnRequests() })
	if err != nil {
		return err
	}
	if s.plan.fillCache {
		// The cache key excludes MaxRefs, so a one-reference sweep
		// captures the whole workload while simulating almost nothing.
		cfg, err := s.config(s.plan.seed)
		if err != nil {
			return err
		}
		cfg.MaxRefs = 1
		err = tr.do("harness.sweep", 0, "setup", func(int) error {
			_, err := harness.SweepSpec(ctx, cfg, columnarPoints[0], []uint64{columnarPoints[0].IssueMHz}, []uint64{columnarPoints[0].SizeBytes})
			return err
		})
		if err != nil {
			return err
		}
	}
	if err := s.newServer(tr, 0); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for _, body := range s.plan.fill {
		jt, err := s.job(ctx, tr, "fill", body)
		if err != nil {
			return err
		}
		if jt.failure != "" {
			return errors.New(jt.failure)
		}
	}
	return nil
}

// learnRequests validates the plan's run points, learns from the
// generators how many application references each seed's cells must
// execute, and loads the goldens if a request has their seed.
func (s *served) learnRequests() error {
	for _, req := range s.plan.cold {
		if req.run != nil {
			if err := req.run.spec.Validate(); err != nil {
				return err
			}
		}
		if req.seed == goldenSeed && s.golden == nil {
			g, err := goldenCells("table3", "table4", "table5", "policies")
			if err != nil {
				return err
			}
			s.golden = g
		}
		if _, ok := s.wantBench[req.seed]; ok {
			continue
		}
		cfg, err := s.config(req.seed)
		if err != nil {
			return err
		}
		readers, err := cfg.Readers()
		if err != nil {
			return err
		}
		var n uint64
		for _, rd := range readers {
			g, ok := rd.(interface{ Remaining() uint64 })
			if !ok {
				return fmt.Errorf("workload stream %T has no known length", rd)
			}
			n += g.Remaining()
		}
		s.wantBench[req.seed] = n
	}
	return nil
}

// newServer builds server generation gen over its own empty store.
func (s *served) newServer(tr *tracer, gen int) error {
	s.store = filepath.Join(s.dir, fmt.Sprintf("store-%d", gen))
	return s.rebuild(tr)
}

// rebuild starts a server over the current store, which it re-indexes;
// the listener switches to it.
func (s *served) rebuild(tr *tracer) error {
	return tr.do("server.new", 0, "", func(int) error {
		srv, err := server.New(serverConfig(s.store))
		if err != nil {
			return err
		}
		s.srvMu.Lock()
		s.srv = srv
		s.srvMu.Unlock()
		return nil
	})
}

// close stops the listener, the client and the current server, and
// removes the scratch directory.
func (s *served) close() {
	if s.hs != nil {
		_ = s.hs.Close() // the benchmark is done with every connection
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		_ = s.srv.Drain(context.Background())
	}
	_ = os.RemoveAll(s.dir)
}

// jobTiming is one job as the client saw it.
type jobTiming struct {
	submit, firstEvent, firstCell, done time.Duration
	events                              int
	eventGap                            time.Duration // mean gap between streamed events
	doc                                 []byte
	failure                             string
}

// job submits one request, follows its event stream to the terminal
// event and fetches its document. Anything but 2xx responses and a
// done terminal event is a failure.
func (s *served) job(ctx context.Context, tr *tracer, tier string, body []byte) (jobTiming, error) {
	var jt jobTiming
	root := tr.start("server.job", 0, tier)
	defer tr.end(root)
	t0 := time.Now()
	sid := tr.start("server.submit", root, tier)
	resp, err := s.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return jt, err
	}
	status, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sid)
	jt.submit = time.Since(t0)
	if err != nil {
		return jt, err
	}
	if resp.StatusCode/100 != 2 {
		jt.failure = fmt.Sprintf("%s submit: HTTP %d: %s", tier, resp.StatusCode, bytes.TrimSpace(status))
		return jt, nil
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(status, &st); err != nil || st.ID == "" {
		jt.failure = fmt.Sprintf("%s submit: bad status %q", tier, status)
		return jt, nil
	}
	eid := tr.start("server.events", root, st.ID)
	tEvents := time.Now()
	resp, err = s.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		return jt, err
	}
	var terminal string
	var first, last time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		now := time.Since(t0)
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return jt, fmt.Errorf("%s events: %w", tier, err)
		}
		jt.events++
		if jt.events == 1 {
			first = now
			jt.firstEvent = time.Since(tEvents)
		}
		last = now
		if ev.Type == "cell" && jt.firstCell == 0 {
			jt.firstCell = now
		}
		if ev.Terminal() {
			terminal = ev.Type
			break
		}
	}
	scanErr := sc.Err()
	resp.Body.Close()
	tr.end(eid)
	jt.done = time.Since(t0)
	if scanErr != nil {
		return jt, scanErr
	}
	if resp.StatusCode/100 != 2 || terminal != string(jobs.StateDone) {
		jt.failure = fmt.Sprintf("%s job %s: HTTP %d, terminal event %q", tier, st.ID, resp.StatusCode, terminal)
		return jt, nil
	}
	if jt.events > 1 {
		jt.eventGap = (last - first) / time.Duration(jt.events-1)
	}
	rid := tr.start("server.result", root, st.ID)
	resp, err = s.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return jt, err
	}
	jt.doc, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(rid)
	if err != nil {
		return jt, err
	}
	if resp.StatusCode != http.StatusOK {
		jt.failure = fmt.Sprintf("%s result %s: HTTP %d", tier, st.ID, resp.StatusCode)
	}
	return jt, nil
}

// do sends one request to the service.
func (s *served) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return s.client.Do(req)
}

// metricsz reads the current server's counters.
func (s *served) metricsz(ctx context.Context, tr *tracer) (map[string]uint64, error) {
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	err := tr.do("server.metricsz", 0, "", func(int) error {
		resp, err := s.do(ctx, http.MethodGet, "/metricsz?format=json", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/metricsz: HTTP %d", resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(&doc)
	})
	return doc.Counters, err
}

// drain stops the current server once its jobs finish, first folding
// its /metricsz counters into the run's totals when it served measured
// jobs.
func (s *served) drain(ctx context.Context, tr *tracer, measured bool) error {
	if measured {
		counters, err := s.metricsz(ctx, tr)
		if err != nil {
			return err
		}
		for k, v := range counters {
			s.counters[k] += v
		}
	}
	return tr.do("server.drain", 0, "", func(int) error {
		ctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		return s.srv.Drain(ctx)
	})
}

// Each round gives the hit tier at least hitPhase and the disk-hit
// tier at least diskPhase, in whole passes over the cold requests.
const hitPhase, diskPhase = 300 * time.Millisecond, 500 * time.Millisecond

// tierSamples collects one tier's client-side timings, in ms, and
// each round's p50 of them.
type tierSamples struct {
	done, firstCell           []float64
	roundDone, roundFirstCell []float64
	roundStart, firstStart    int // where this round's samples begin
}

func (t *tierSamples) endRound() {
	if len(t.done) > t.roundStart {
		t.roundDone = append(t.roundDone, summarize(t.done[t.roundStart:]).P50)
	}
	if len(t.firstCell) > t.firstStart {
		t.roundFirstCell = append(t.roundFirstCell, summarize(t.firstCell[t.firstStart:]).P50)
	}
	t.roundStart, t.firstStart = len(t.done), len(t.firstCell)
}

var tierNames = []string{"cold", "warm", "hit", "disk_hit"}

// measure runs whole rounds for about the budget. Every job is an
// attempted operation, and so is every check of a cold or warm cell.
func (s *served) measure(ctx context.Context, budget time.Duration, tr *tracer) (outcome, error) {
	out := outcome{E2E: map[string]float64{}, Layers: map[string]float64{}}
	tiers := make(map[string]*tierSamples)
	for _, name := range tierNames {
		tiers[name] = &tierSamples{}
	}
	var submits, firstEvents, gaps []float64
	record := func(tier string, jt jobTiming) bool {
		out.Attempted++
		if jt.failure != "" {
			out.fail("%s", jt.failure)
			return false
		}
		t := tiers[tier]
		t.done = append(t.done, ms(jt.done))
		if jt.firstCell > 0 {
			t.firstCell = append(t.firstCell, ms(jt.firstCell))
		}
		submits = append(submits, ms(jt.submit))
		firstEvents = append(firstEvents, ms(jt.firstEvent))
		if tier == "hit" || tier == "disk_hit" {
			gaps = append(gaps, float64(jt.eventGap.Nanoseconds())/1e3)
		}
		return true
	}
	cold := s.plan.cold
	var (
		cnt  counts
		refs uint64
		cpu  float64
	)
	ph, err := startPhase()
	if err != nil {
		return out, err
	}
	start := time.Now()
	for round := 0; round == 0 || fits(start, round, budget); round++ {
		// A fresh server over an empty store: every cold request is
		// one it has never seen.
		if err := s.drain(ctx, tr, round > 0); err != nil {
			return out, err
		}
		if err := s.newServer(tr, round+1); err != nil {
			return out, err
		}

		// Cold.
		cpu0, err := processCPU()
		if err != nil {
			return out, err
		}
		docs := make([][]byte, len(cold))
		cells := make([]map[cellKey][]byte, len(cold))
		for i, req := range cold {
			jt, err := s.job(ctx, tr, "cold", req.body)
			if err != nil {
				return out, err
			}
			if !record("cold", jt) {
				return out, nil
			}
			docs[i] = jt.doc
			if cells[i], err = s.checkCold(&out, req, jt.doc, round); err != nil {
				out.fail("cold %s document: %v", req.body, err)
				return out, nil
			}
			for _, c := range cells[i] {
				var rep harness.ReportJSON
				if err := json.Unmarshal(c, &rep); err != nil {
					return out, err
				}
				refs += cellRefs(rep)
				if round == 0 {
					cnt.add(rep)
				}
			}
		}
		cpu1, err := processCPU()
		if err != nil {
			return out, err
		}
		cpu += cpu1 - cpu0
		if round == 0 {
			s.coldDoc, s.coldCells = docs, cells
		}

		// Warm: requests whose every cell is a cold cell of this
		// server, each with a complete checkpoint.
		warmBefore, err := s.metricsz(ctx, tr)
		if err != nil {
			return out, err
		}
		warmCells := 0
		for i, req := range cold {
			for _, w := range req.warm {
				jt, err := s.job(ctx, tr, "warm", w.body)
				if err != nil {
					return out, err
				}
				if !record("warm", jt) {
					continue
				}
				got, err := cellsOf(w, jt.doc)
				if err != nil {
					out.fail("warm %s document: %v", w.body, err)
					continue
				}
				for k, c := range got {
					warmCells++
					out.Attempted++
					if !bytes.Equal(c, cells[i][k]) {
						out.fail("warm %s cell %s@%d/%d differs from the cold cell", w.body, k.system, k.mhz, k.size)
					}
				}
			}
		}
		warmAfter, err := s.metricsz(ctx, tr)
		if err != nil {
			return out, err
		}
		if got := warmAfter["checkpoint_hits"] - warmBefore["checkpoint_hits"]; got != uint64(warmCells) {
			out.fail("warm tier: %d checkpoint hits for %d warm cells", got, warmCells)
		}

		// Hit: exact resubmissions of the cold requests, which this
		// server computed and so holds in memory.
		for t0, pass := time.Now(), 0; pass == 0 || time.Since(t0) < hitPhase; pass++ {
			for i, req := range cold {
				jt, err := s.job(ctx, tr, "hit", req.body)
				if err != nil {
					return out, err
				}
				if record("hit", jt) && !bytes.Equal(jt.doc, docs[i]) {
					out.fail("hit document %s differs from the cold document", req.body)
				}
			}
		}
		hitAfter, err := s.metricsz(ctx, tr)
		if err != nil {
			return out, err
		}
		if got := hitAfter["sim_runs"] - warmAfter["sim_runs"]; got != 0 {
			out.fail("hit tier ran %d simulations", got)
		}
		if got := hitAfter["disk_hits"] - warmAfter["disk_hits"]; got != 0 {
			out.fail("hit tier went to the disk store %d times", got)
		}

		// Disk hit: drain, rebuild over the same store and resubmit
		// every cold request once, cycle after cycle.
		for t0, cycle := time.Now(), 0; cycle == 0 || time.Since(t0) < diskPhase; cycle++ {
			if err := s.drain(ctx, tr, true); err != nil {
				return out, err
			}
			if err := s.rebuild(tr); err != nil {
				return out, err
			}
			for i, req := range cold {
				jt, err := s.job(ctx, tr, "disk_hit", req.body)
				if err != nil {
					return out, err
				}
				if record("disk_hit", jt) && !bytes.Equal(jt.doc, docs[i]) {
					out.fail("disk-hit document %s differs from the cold document", req.body)
				}
			}
			snap, err := s.metricsz(ctx, tr)
			if err != nil {
				return out, err
			}
			if snap["sim_runs"] != 0 || snap["disk_hits"] != uint64(len(cold)) {
				out.fail("disk-hit cycle: %d simulations and %d disk hits for %d requests",
					snap["sim_runs"], snap["disk_hits"], len(cold))
			}
		}
		for _, t := range tiers {
			t.endRound()
		}
	}
	if err := s.drain(ctx, tr, true); err != nil {
		return out, err
	}
	_, busy, steal, err := ph.end()
	if err != nil {
		return out, err
	}

	// Latencies are wall time less the hypervisor's steal: the median
	// round's p50 is scaled by one minus steal's share of the CPU time
	// work wanted over the whole measured part. On a shared host that
	// share swings from 0 to 30% within minutes and stretches every
	// wall-clock figure with it, requests of a millisecond as much as
	// those of a second; time the hypervisor took is not the
	// service's. The share is the whole run's because /proc/stat counts
	// in 10 ms ticks, which a phase of a few requests does not fill.
	// Everything else a client waits for (timers, locks, queues, I/O)
	// stays in.
	keep := 1 - stealShare(busy, steal)
	out.E2E["mrefs_per_cpu_s"] = float64(refs) / 1e6 / cpu
	for _, name := range tierNames {
		t := tiers[name]
		out.E2E[name+"_done_ms"] = keep * median(t.roundDone)
		d := summarize(t.done)
		out.Layers["server."+name+"_tail_ms"] = d.Tail
		out.Layers["server."+name+"_tail_pct"] = d.TailPct
		out.Layers["server."+name+"_samples"] = float64(d.N)
	}
	out.E2E["cold_first_cell_ms"] = keep * median(tiers["cold"].roundFirstCell)
	out.Layers["server.submit_ms"] = summarize(submits).P50
	out.Layers["server.first_event_ms"] = summarize(firstEvents).P50
	out.Layers["server.event_us"] = summarize(gaps).P50
	for k, v := range cnt.metrics() {
		out.Layers[k] = v
	}
	c := s.counters
	ratio := func(num uint64, den ...uint64) float64 {
		var d uint64
		for _, v := range den {
			d += v
		}
		if d == 0 {
			return 0
		}
		return float64(num) / float64(d)
	}
	out.Layers["checkpoint.hit_ratio"] = ratio(c["checkpoint_hits"], c["checkpoint_hits"], c["checkpoint_misses"])
	out.Layers["jobs.cache_hit_ratio"] = ratio(c["cache_hits"], c["cache_hits"], c["disk_hits"], c["cache_misses"])
	out.Layers["jobs.disk_hit_ratio"] = ratio(c["disk_hits"], c["disk_hits"], c["cache_misses"])
	return out, nil
}

// checkCold checks a cold document's cells and returns them: each must
// execute all its seed's application references, byte-equal its
// golden cell at the goldens' seed, and, after the first round, the
// document must repeat the first round's byte for byte.
func (s *served) checkCold(out *outcome, req request, doc []byte, round int) (map[cellKey][]byte, error) {
	cells, err := cellsOf(req, doc)
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, errors.New("no cells")
	}
	for k, c := range cells {
		out.Attempted++
		var rep harness.ReportJSON
		if err := json.Unmarshal(c, &rep); err != nil {
			return nil, err
		}
		if want := s.wantBench[req.seed]; rep.BenchRefs != want {
			out.fail("%s cell %s@%d/%d executed %d application refs, want %d", req.body, k.system, k.mhz, k.size, rep.BenchRefs, want)
			continue
		}
		if req.seed == goldenSeed {
			g := cellKey{goldenDoc(req), k.system, k.mhz, k.size}
			if want, ok := s.golden[g]; !ok || !bytes.Equal(c, want) {
				out.fail("%v differs from testdata/golden/%s.json", g, g.doc)
			}
		}
	}
	if round > 0 {
		for i, r := range s.plan.cold {
			if bytes.Equal(r.body, req.body) && !bytes.Equal(doc, s.coldDoc[i]) {
				out.fail("cold document %s changed between rounds", req.body)
			}
		}
	}
	return cells, nil
}
