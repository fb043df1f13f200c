package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rampage/internal/checkpoint"
	"rampage/internal/fleet"
	"rampage/internal/harness"
	"rampage/internal/metrics"
	"rampage/internal/server"
)

// localDoc builds the reference bytes the fleet must match: the plain
// in-process harness rendering of the experiment.
func localDoc(t *testing.T, cfg harness.Config, id string, rates, sizes []uint64) []byte {
	t.Helper()
	doc, err := harness.BuildExperimentDoc(context.Background(), cfg, id, rates, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// localRunDoc builds the reference bytes of a run job: the rampage-sim
// -format json document of a direct harness run.
func localRunDoc(t *testing.T, cfg harness.Config, spec harness.RunSpec) []byte {
	t.Helper()
	rep, err := harness.Run(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, harness.NewRunDoc(rep, nil)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memCheckpoints returns a memory-only checkpoint store with an 8 MiB
// budget.
func memCheckpoints(t *testing.T) *checkpoint.Store {
	t.Helper()
	s, err := checkpoint.NewStore(8<<20, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startFleetWorker runs an in-process worker against the server's
// coordinator endpoints and cleans it up with the test.
func startFleetWorker(t *testing.T, url, name string) {
	t.Helper()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		CoordinatorURL: url,
		Name:           name,
		Parallel:       2,
		Checkpoints:    memCheckpoints(t),
		Stats:          &metrics.ServiceStats{},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func waitForFleetWorkers(t *testing.T, svc *server.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Fleet().LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d fleet workers", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeExperimentThroughFleet pins the tentpole guarantee at the
// service boundary: with workers registered, an experiment request is
// sharded across the fleet and the served document is byte-identical
// to the in-process harness build; the coordinator itself never
// simulates.
func TestServeExperimentThroughFleet(t *testing.T) {
	var stats metrics.ServiceStats
	ts, svc := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8, Stats: &stats})
	startFleetWorker(t, ts.URL, "w1")
	startFleetWorker(t, ts.URL, "w2")
	waitForFleetWorkers(t, svc, 2)

	url := ts.URL + "/v1/experiments/table3?scale=tiny&rates=200,400&sizes=4096"
	code, body, _ := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("status %d: %.300s", code, body)
	}
	want := localDoc(t, testScales()["tiny"], "table3", []uint64{200, 400}, []uint64{4096})
	if !bytes.Equal(body, want) {
		t.Fatalf("fleet-served document differs from local build (%d vs %d bytes)", len(body), len(want))
	}
	if n := stats.Get(metrics.SvcFleetCompleted); n == 0 {
		t.Error("no cells went through the fleet")
	}
	if n := stats.Get(metrics.SvcFleetLocal); n != 0 {
		t.Errorf("coordinator simulated %d cells itself; want 0 with live workers", n)
	}

	// The assembled document is cached like any local result: a repeat
	// is a cache hit, no new fleet traffic.
	leased := stats.Get(metrics.SvcFleetLeased)
	code, body2, _ := get(t, url)
	if code != http.StatusOK || !bytes.Equal(body2, want) {
		t.Fatalf("repeat request differs (status %d)", code)
	}
	if n := stats.Get(metrics.SvcFleetLeased); n != leased {
		t.Errorf("repeat request leased %d new cells", n-leased)
	}
}

// TestDiskStoreServesAcrossRestart pins the persistence guarantee at
// the service boundary: a document computed before a server restart is
// served byte-identical from the disk store by the next server, with
// zero new simulation.
func TestDiskStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	url := "/v1/experiments/table3?scale=tiny&rates=200,400&sizes=4096"

	ts1, svc1 := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8, DiskDir: dir})
	code, body1, _ := get(t, ts1.URL+url)
	if code != http.StatusOK {
		t.Fatalf("status %d: %.300s", code, body1)
	}
	drainCtx, cancel := contextWithTimeout(30 * time.Second)
	svc1.Drain(drainCtx)
	cancel()
	ts1.Close()

	var stats metrics.ServiceStats
	ts2, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8, DiskDir: dir, Stats: &stats})
	code, body2, _ := get(t, ts2.URL+url)
	if code != http.StatusOK {
		t.Fatalf("restarted status %d: %.300s", code, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("disk-served document differs across restart (%d vs %d bytes)", len(body1), len(body2))
	}
	if n := stats.Get(metrics.SvcDiskHit); n == 0 {
		t.Error("no disk hits on the restarted server")
	}
	if n := stats.Get(metrics.SvcSimRuns); n != 0 {
		t.Errorf("restarted server ran %d simulations; want 0 (disk should answer)", n)
	}
}

// TestFleetCompletionCannotForgeResults posts a completion from a
// worker the coordinator never registered, naming the results key of
// an experiment document with a forged report. The POST is refused
// with 404 as before, and the document served next must be the
// simulated one, where a coordinator that persisted any completed key
// served the forged bytes from the shared disk store.
func TestFleetCompletionCannotForgeResults(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 8, DiskDir: t.TempDir()})
	rates, sizes := []uint64{200, 400}, []uint64{4096}
	key := harness.ExperimentKey(testScales()["tiny"], "table3", rates, sizes)
	forged, err := json.Marshal(fleet.CompleteRequest{WorkerID: "nobody", Key: key, Report: json.RawMessage(`{"forged":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if code, resp, _ := post(t, ts.URL+"/fleet/v1/complete", string(forged)); code != http.StatusNotFound {
		t.Fatalf("forged completion: status %d (%s), want 404", code, resp)
	}
	code, doc, _ := get(t, ts.URL+"/v1/experiments/table3?scale=tiny&rates=200,400&sizes=4096")
	if code != http.StatusOK {
		t.Fatalf("status %d: %.300s", code, doc)
	}
	if want := localDoc(t, testScales()["tiny"], "table3", rates, sizes); !bytes.Equal(doc, want) {
		t.Fatalf("served %d bytes (%.40q), want the simulated document (%d bytes)", len(doc), doc, len(want))
	}
}

// TestFleetWorkersShareCellsAcrossExperiments pins fleet-wide dedup:
// fig2's cells are a subset of table3's grid at the same scale, so
// with a disk store attached, serving table3 first makes fig2 cost
// zero new leases.
func TestFleetWorkersShareCellsAcrossExperiments(t *testing.T) {
	var stats metrics.ServiceStats
	ts, svc := newTestServer(t, server.Config{
		Workers: 2, QueueDepth: 8, Stats: &stats, DiskDir: t.TempDir(),
	})
	startFleetWorker(t, ts.URL, "w1")
	waitForFleetWorkers(t, svc, 1)

	// fig2 pins rate 200; request table3 restricted to that rate so the
	// grids coincide exactly.
	code, body, _ := get(t, ts.URL+"/v1/experiments/table3?scale=tiny&rates=200")
	if code != http.StatusOK {
		t.Fatalf("table3 status %d: %.300s", code, body)
	}
	leased := stats.Get(metrics.SvcFleetLeased)
	if leased == 0 {
		t.Fatal("table3 leased no cells")
	}
	code, body, _ = get(t, ts.URL+"/v1/experiments/fig2?scale=tiny")
	if code != http.StatusOK {
		t.Fatalf("fig2 status %d: %.300s", code, body)
	}
	want := localDoc(t, testScales()["tiny"], "fig2", nil, nil)
	if !bytes.Equal(body, want) {
		t.Fatalf("fig2 assembled from shared cells differs from local build (%d vs %d bytes)", len(body), len(want))
	}
	if n := stats.Get(metrics.SvcFleetLeased); n != leased {
		t.Errorf("fig2 leased %d new cells; want 0 (cells shared with table3)", n-leased)
	}
	if n := stats.Get(metrics.SvcDiskHit); n == 0 {
		t.Error("fig2 took no disk hits")
	}
}

// TestStreamFleetServedExperiment pins streaming for fleet-served
// jobs: the same table3 job served through an in-process worker and
// served locally publishes byte-identical cell payloads at every
// index, and each stream reassembles its job's final document.
func TestStreamFleetServedExperiment(t *testing.T) {
	const body = `{"kind":"experiment","id":"table3","scale":"tiny","rates_mhz":[200,400],"sizes_bytes":[256,4096]}`
	rates, sizes := []uint64{200, 400}, []uint64{256, 4096}
	serve := func(ts *httptest.Server) (map[int][]byte, []byte) {
		code, resp, _ := post(t, ts.URL+"/v1/jobs", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, resp)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			t.Fatal(err)
		}
		events := streamNDJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
		checkEventInvariants(t, events, "done")
		code, final, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result: %d %s", code, final)
		}
		if rebuilt := reassemble(t, "table3", rates, sizes, events); !bytes.Equal(rebuilt, final) {
			t.Fatalf("reassembled stream differs from the final document (%d vs %d bytes)", len(rebuilt), len(final))
		}
		cells := make(map[int][]byte)
		for _, e := range events {
			if e.Type != "cell" {
				continue
			}
			var cell streamCell
			if err := json.Unmarshal(e.Cell, &cell); err != nil {
				t.Fatal(err)
			}
			cells[cell.Index] = e.Cell
		}
		return cells, final
	}

	var stats metrics.ServiceStats
	fleetTS, fleetSvc := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	startFleetWorker(t, fleetTS.URL, "w1")
	waitForFleetWorkers(t, fleetSvc, 1)
	fleetCells, fleetDoc := serve(fleetTS)
	if n := stats.Get(metrics.SvcFleetCompleted); n == 0 {
		t.Error("no cells went through the fleet")
	}
	if n := stats.Get(metrics.SvcFleetLocal); n != 0 {
		t.Errorf("coordinator simulated %d cells itself; want 0 with a live worker", n)
	}

	localTS, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	localCells, localDoc := serve(localTS)
	if !bytes.Equal(fleetDoc, localDoc) {
		t.Fatalf("fleet-served document differs from the local one (%d vs %d bytes)", len(fleetDoc), len(localDoc))
	}
	if len(fleetCells) != len(localCells) {
		t.Fatalf("fleet streamed %d cells, local %d", len(fleetCells), len(localCells))
	}
	for k, local := range localCells {
		if !bytes.Equal(fleetCells[k], local) {
			t.Errorf("cell %d payload differs:\nfleet: %s\nlocal: %s", k, fleetCells[k], local)
		}
	}
}

// TestOneCellJobsStayInProcess pins the runner choice: with a live
// worker, a one-cell experiment and a run job run in process, leasing
// nothing, and serve the local bytes.
func TestOneCellJobsStayInProcess(t *testing.T) {
	var stats metrics.ServiceStats
	ts, svc := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8, Stats: &stats})
	startFleetWorker(t, ts.URL, "w1")
	waitForFleetWorkers(t, svc, 1)
	tiny := testScales()["tiny"]

	code, body, _ := get(t, ts.URL+"/v1/experiments/table5?scale=tiny&rates=400&sizes=1024")
	if want := localDoc(t, tiny, "table5", []uint64{400}, []uint64{1024}); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("one-cell experiment: status %d, %d bytes; want 200 and the local %d bytes", code, len(body), len(want))
	}
	code, body, _ = post(t, ts.URL+"/v1/runs", `{"scale":"tiny","system":"rampage","issue_mhz":400,"size_bytes":1024}`)
	want := localRunDoc(t, tiny, harness.RunSpec{System: harness.RAMpage, IssueMHz: 400, SizeBytes: 1024})
	if code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("run job: status %d: %s\nwant %s", code, body, want)
	}
	if n := stats.Get(metrics.SvcFleetLeased); n != 0 {
		t.Errorf("one-cell jobs leased %d cells, want 0", n)
	}
}

// TestFleetCellAndRunDocumentAddressesDisjoint pins that a fleet cell's
// bare report and a run job's document never share a content address
// in the one results store: with a store and a live worker, a run of
// one of a fleet-served experiment's cells serves its run document,
// and in the other order the experiment still assembles from cells.
func TestFleetCellAndRunDocumentAddressesDisjoint(t *testing.T) {
	tiny := testScales()["tiny"]
	wantDoc := localDoc(t, tiny, "table3", []uint64{200}, []uint64{4096})
	wantRun := localRunDoc(t, tiny, harness.RunSpec{System: harness.BaselineDM, IssueMHz: 200, SizeBytes: 4096})
	for _, runFirst := range []bool{false, true} {
		var stats metrics.ServiceStats
		ts, svc := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8, Stats: &stats, DiskDir: t.TempDir()})
		startFleetWorker(t, ts.URL, "w1")
		waitForFleetWorkers(t, svc, 1)
		experiment := func() {
			code, body, _ := get(t, ts.URL+"/v1/experiments/table3?scale=tiny&rates=200&sizes=4096")
			if code != http.StatusOK || !bytes.Equal(body, wantDoc) {
				t.Errorf("run first %v: experiment status %d: %.300s", runFirst, code, body)
			}
		}
		run := func() {
			code, body, _ := post(t, ts.URL+"/v1/runs", `{"scale":"tiny","system":"baseline","issue_mhz":200,"size_bytes":4096}`)
			if code != http.StatusOK || !bytes.Equal(body, wantRun) {
				t.Errorf("run first %v: run status %d: %.300s", runFirst, code, body)
			}
		}
		if runFirst {
			run()
			experiment()
		} else {
			experiment()
			run()
		}
		if n := stats.Get(metrics.SvcFleetLeased); n != 2 {
			t.Errorf("run first %v: experiment leased %d cells, want 2", runFirst, n)
		}
	}
}

// TestOrphanedCellsRunInProcess pins the coordinator's fallback as the
// server wires it: cells queued for a worker that goes silent before
// leasing run in process, one at a time through fleet.RunLocal, and
// the served document is the local one.
func TestOrphanedCellsRunInProcess(t *testing.T) {
	var stats metrics.ServiceStats
	ts, svc := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, Stats: &stats, FleetLeaseTTL: 2 * time.Second})
	// Registered but never polling: live until it has been silent for
	// 1.5 lease TTLs, long enough for the job to pick the fleet.
	if _, err := svc.Fleet().Register(fleet.RegisterRequest{Version: fleet.ProtoVersion, Name: "silent"}); err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, ts.URL+"/v1/experiments/table3?scale=tiny&rates=200&sizes=4096")
	if want := localDoc(t, testScales()["tiny"], "table3", []uint64{200}, []uint64{4096}); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("status %d, %d bytes; want 200 and the local %d bytes", code, len(body), len(want))
	}
	if n := stats.Get(metrics.SvcFleetLocal); n != 2 {
		t.Errorf("fleet_cells_local = %d, want 2", n)
	}
}
