package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rampage/internal/harness"
	"rampage/internal/metrics"
	"rampage/internal/server"
)

// testScales injects miniature workloads so API tests simulate in
// milliseconds: "tiny" (~100k refs) for correctness paths, "slow"
// (~70M refs, seconds) where a test needs a job to stay in flight
// long enough to observe queue states.
func testScales() map[string]harness.Config {
	tiny := harness.QuickScaled()
	tiny.RefScale = 1.0 / 10000
	slow := harness.QuickScaled()
	slow.RefScale = 1.0 / 16
	return map[string]harness.Config{
		"tiny": tiny,
		"slow": slow,
	}
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func newTestServer(t *testing.T, cfg server.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	if cfg.Scales == nil {
		cfg.Scales = testScales()
	}
	svc, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := contextWithTimeout(30 * time.Second)
		defer cancel()
		svc.Drain(drainCtx)
	})
	return ts, svc
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func post(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func TestListExperiments(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, body, _ := get(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var doc struct {
		Experiments []struct {
			ID       string `json:"id"`
			Servable bool   `json:"servable"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	servable := map[string]bool{}
	for _, e := range doc.Experiments {
		servable[e.ID] = e.Servable
	}
	if !servable["table3"] || !servable["fig2"] {
		t.Errorf("table3/fig2 not marked servable: %v", servable)
	}
	if servable["fig5"] {
		t.Error("fig5 has no JSON form but is marked servable")
	}
}

// TestExperimentRequestErrors pins the sync route's refusals. Grids no
// cell could run (a rate with no integral cycle time, a size that is
// not a power of two, zero or repeated values) are refused by the
// expand step before anything is queued or simulated.
func TestExperimentRequestErrors(t *testing.T) {
	var stats metrics.ServiceStats
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/experiments/nosuch", http.StatusNotFound},
		{"/v1/experiments/fig5", http.StatusBadRequest}, // no JSON form
		{"/v1/experiments/table3?scale=mega", http.StatusBadRequest},
		{"/v1/experiments/table3?seed=abc", http.StatusBadRequest},
		{"/v1/experiments/table3?rates=12,x", http.StatusBadRequest},
		{"/v1/experiments/table3?scale=tiny&rates=300", http.StatusBadRequest},
		{"/v1/experiments/table3?scale=tiny&sizes=3000", http.StatusBadRequest},
		{"/v1/experiments/table3?scale=tiny&sizes=0", http.StatusBadRequest},
		{"/v1/experiments/table3?scale=tiny&rates=200,200", http.StatusBadRequest},
		{"/v1/jobs/nosuch", http.StatusNotFound},
	} {
		code, body, _ := get(t, ts.URL+tc.path)
		if code != tc.code {
			t.Errorf("GET %s = %d (%s), want %d", tc.path, code, body, tc.code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: error body %q not a JSON error", tc.path, body)
		}
	}
	if n := stats.Get(metrics.SvcJobsAccepted); n != 0 {
		t.Errorf("%d jobs accepted for refused requests, want 0", n)
	}
}

// TestLargeInvalidGridRefusedCheaply pins that a grid is validated
// value by value before its cross product is built: 3000 rates × 3000
// sizes, a ~30 KB query naming 18 M table3 cells, gets a 400 without
// the refusal allocating the cells.
func TestLargeInvalidGridRefusedCheaply(t *testing.T) {
	vals := make([]uint64, 3000)
	list := make([]string, len(vals))
	for i := range vals {
		vals[i] = uint64(i + 1)
		list[i] = strconv.Itoa(i + 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := harness.ShapeOf("table3", vals, vals)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ShapeOf accepted a grid of mostly invalid rates and sizes")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
		t.Fatalf("ShapeOf allocated %d MB to refuse the grid, want under 16 MB", n>>20)
	}
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	q := strings.Join(list, ",")
	code, body, _ := get(t, ts.URL+"/v1/experiments/table3?scale=tiny&rates="+q+"&sizes="+q)
	if code != http.StatusBadRequest {
		t.Errorf("status %d (%.200s), want 400", code, body)
	}
}

// TestExperimentSyncAndCached pins the serving core: a sweep request
// computes once, and the repeat is served byte-identically from the
// cache without another simulation.
func TestExperimentSyncAndCached(t *testing.T) {
	var stats metrics.ServiceStats
	ts, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8, Stats: &stats})
	url := ts.URL + "/v1/experiments/table3?scale=tiny&rates=800&sizes=4096"

	code, first, hdr := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc harness.ExperimentDoc
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != harness.ReportVersion || doc.ID != "table3" || len(doc.Systems) != 2 {
		t.Errorf("doc = version %d id %s systems %d", doc.Version, doc.ID, len(doc.Systems))
	}

	code, second, _ := get(t, url)
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("repeat not byte-identical (status %d)", code)
	}
	if hits := stats.Get(metrics.SvcCacheHit); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if runs := stats.Get(metrics.SvcSimRuns); runs != 1 {
		t.Errorf("sim_runs = %d, want 1 (repeat re-simulated)", runs)
	}

	// An equivalent spelling of the same request — the paper-default
	// grid written out — must be the same cache entry.
	code, third, _ := get(t, ts.URL+"/v1/experiments/table3?scale=tiny&rates=800&sizes=4096&seed=42")
	if code != http.StatusOK || !bytes.Equal(first, third) {
		t.Errorf("equivalent request missed the cache (status %d)", code)
	}
	if runs := stats.Get(metrics.SvcSimRuns); runs != 1 {
		t.Errorf("sim_runs = %d after equivalent request, want 1", runs)
	}
}

// TestSingleflightHTTP is the headline concurrency guarantee at the
// HTTP layer: 16 concurrent identical sweep requests produce exactly
// one simulation and 16 byte-identical responses.
func TestSingleflightHTTP(t *testing.T) {
	var stats metrics.ServiceStats
	ts, _ := newTestServer(t, server.Config{Workers: 4, QueueDepth: 32, Stats: &stats})
	url := ts.URL + "/v1/experiments/table3?scale=tiny&rates=800&sizes=4096"

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if runs := stats.Get(metrics.SvcSimRuns); runs != 1 {
		t.Errorf("sim_runs = %d, want exactly 1", runs)
	}
	// Every other request either collapsed onto the in-flight job or,
	// if it arrived after completion, hit the cache.
	if saved := stats.Get(metrics.SvcCacheDedup) + stats.Get(metrics.SvcCacheHit); saved != n-1 {
		t.Errorf("dedups+hits = %d, want %d", saved, n-1)
	}
}

// TestQueueOverflow429 pins backpressure: with one worker busy and a
// one-deep queue full, the next submission bounces with 429 and a
// Retry-After hint instead of queueing unboundedly.
func TestQueueOverflow429(t *testing.T) {
	var stats metrics.ServiceStats
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1, Stats: &stats})

	submit := func(seed int) (int, []byte, http.Header) {
		body := fmt.Sprintf(`{"kind":"run","scale":"slow","seed":%d,"system":"rampage","issue_mhz":800,"size_bytes":4096}`, seed)
		return post(t, ts.URL+"/v1/jobs", body)
	}
	jobID := func(body []byte) string {
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
			t.Fatalf("no job id in %s", body)
		}
		return st.ID
	}
	cancelJob := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}

	// First job: wait until the worker has dequeued it.
	code, body, _ := submit(1)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, body)
	}
	defer cancelJob(jobID(body))
	deadline := time.Now().Add(20 * time.Second)
	for {
		var health struct {
			QueueLength int `json:"queue_length"`
		}
		_, hb, _ := get(t, ts.URL+"/healthz")
		if err := json.Unmarshal(hb, &health); err != nil {
			t.Fatal(err)
		}
		if health.QueueLength == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never left the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Second fills the queue; third must bounce.
	code, body, _ = submit(2)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", code, body)
	}
	defer cancelJob(jobID(body))
	code, body, hdr := submit(3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d %s, want 429", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive hint", ra)
	}
	if rej := stats.Get(metrics.SvcJobsRejected); rej != 1 {
		t.Errorf("jobs_rejected = %d, want 1", rej)
	}
}

// TestAsyncJobLifecycle walks submit → poll → result → equivalence
// with the synchronous endpoint, then cancel semantics.
func TestAsyncJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8})

	code, body, hdr := post(t, ts.URL+"/v1/jobs",
		`{"kind":"run","scale":"tiny","system":"baseline","issue_mhz":800,"size_bytes":128}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}
	if st.Cells != 1 {
		t.Errorf("cells = %d, want 1", st.Cells)
	}

	// Poll until terminal.
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body, _ = get(t, ts.URL+"/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("status poll: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job ended %s: %s", st.State, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, result, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, result)
	}
	var doc harness.RunDoc
	if err := json.Unmarshal(result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Kind != "run" || doc.Version != harness.ReportVersion {
		t.Errorf("doc kind=%s version=%d", doc.Kind, doc.Version)
	}

	// The synchronous endpoint must serve the identical bytes (from
	// the cache — same content address).
	code, syncBody, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"baseline","issue_mhz":800,"size_bytes":128}`)
	if code != http.StatusOK || !bytes.Equal(result, syncBody) {
		t.Errorf("sync run differs from async result (status %d)", code)
	}

	// Cancel of a finished job conflicts; cancel of an unknown job 404s.
	reqDel, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: %d, want 409", resp.StatusCode)
	}
	reqDel, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j999999", nil)
	resp, err = http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestRunWithMetrics pins the observer plumbing: a run requested with
// metrics carries the collector's event summary, the plain run does
// not, and the two are distinct cache entries with identical reports.
func TestRunWithMetrics(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	plainBody := `{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":1024}`
	metricBody := `{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":1024,"metrics":true}`

	code, plain, _ := post(t, ts.URL+"/v1/runs", plainBody)
	if code != http.StatusOK {
		t.Fatalf("plain run: %d %s", code, plain)
	}
	code, withMetrics, _ := post(t, ts.URL+"/v1/runs", metricBody)
	if code != http.StatusOK {
		t.Fatalf("metrics run: %d %s", code, withMetrics)
	}
	var plainDoc, metricDoc harness.RunDoc
	if err := json.Unmarshal(plain, &plainDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(withMetrics, &metricDoc); err != nil {
		t.Fatal(err)
	}
	if plainDoc.Metrics != nil {
		t.Error("plain run carries a metrics summary")
	}
	if metricDoc.Metrics == nil || len(metricDoc.Metrics.Counts) == 0 {
		t.Fatal("metrics run has no event counts")
	}
	// The observer must not perturb the simulation.
	if !reflect.DeepEqual(plainDoc.Report, metricDoc.Report) {
		t.Error("attaching the observer changed the report")
	}
	// Both variants must be cached independently.
	if code, repeat, _ := post(t, ts.URL+"/v1/runs", metricBody); code != http.StatusOK || !bytes.Equal(withMetrics, repeat) {
		t.Errorf("metrics run repeat not byte-identical (status %d)", code)
	}
}

// TestSubmitJobErrors pins the async route's refusals, which answer
// before anything is queued. A repeated rate once got 202 and crashed
// the server when its sweep left a row unfilled.
func TestSubmitJobErrors(t *testing.T) {
	var stats metrics.ServiceStats
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"kind":"dance"}`, http.StatusBadRequest},
		{`{"kind":"experiment","id":"nosuch"}`, http.StatusNotFound},
		{`{"kind":"experiment","id":"table3","scale":"tiny","rates_mhz":[200,200],"sizes_bytes":[4096]}`, http.StatusBadRequest},
		{`{"kind":"experiment","id":"table3","scale":"tiny","rates_mhz":[0]}`, http.StatusBadRequest},
		{`{"kind":"experiment","id":"table3","scale":"tiny","rates_mhz":[300]}`, http.StatusBadRequest},
		{`{"kind":"experiment","id":"table3","scale":"tiny","sizes_bytes":[3000]}`, http.StatusBadRequest},
		{`{"kind":"experiment","id":"table4","scale":"tiny","sizes_bytes":[4096,4096]}`, http.StatusBadRequest},
		{`{"kind":"run","scale":"tiny","system":"warp","issue_mhz":800,"size_bytes":128}`, http.StatusBadRequest},
		{`{"kind":"run","scale":"tiny","system":"rampage","issue_mhz":800,"size_bytes":3000}`, http.StatusBadRequest},
		{`{"kind":"run","unknown_field":1}`, http.StatusBadRequest},
		// extend needs extend_refs, and a base budget to lengthen (the
		// tiny scale is uncapped and the request sets no max_refs).
		{`{"kind":"extend","scale":"tiny","system":"rampage","issue_mhz":800,"size_bytes":128}`, http.StatusBadRequest},
		{`{"kind":"extend","scale":"tiny","system":"rampage","issue_mhz":800,"size_bytes":128,"extend_refs":1000}`, http.StatusBadRequest},
		// A base budget plus extend_refs past 2^64 once wrapped into a
		// run shorter than its base.
		{`{"kind":"extend","scale":"tiny","system":"rampage","issue_mhz":800,"size_bytes":128,"max_refs":10,"extend_refs":18446744073709551611}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		code, body, _ := post(t, ts.URL+"/v1/jobs", tc.body)
		if code != tc.code {
			t.Errorf("POST %s = %d (%s), want %d", tc.body, code, body, tc.code)
		}
	}
	if n := stats.Get(metrics.SvcJobsAccepted); n != 0 {
		t.Errorf("%d jobs accepted for refused submissions, want 0", n)
	}
}

func TestMetricszShape(t *testing.T) {
	var stats metrics.ServiceStats
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	code, body, _ := get(t, ts.URL+"/metricsz?format=json")
	if code != http.StatusOK {
		t.Fatalf("metricsz: %d", code)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
		Cache    struct {
			Entries int   `json:"entries"`
			Bytes   int64 `json:"bytes"`
		} `json:"cache"`
		Queue struct {
			Capacity int `json:"capacity"`
		} `json:"queue"`
		WorkloadCaptures *uint64 `json:"workload_captures"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Counters["cache_hits"]; !ok {
		t.Errorf("counters missing cache_hits: %v", doc.Counters)
	}
	if doc.WorkloadCaptures == nil {
		t.Error("metricsz missing workload_captures")
	}
	if doc.Queue.Capacity != 4 {
		t.Errorf("queue capacity = %d, want 4", doc.Queue.Capacity)
	}
}

// TestExtendJobWarmStart pins the incremental-run path end to end: a
// budgeted run stores its warm state, an "extend" job lengthens it by
// K references warm-starting from that checkpoint (the service counts
// a checkpoint hit), and the extended document is byte-identical to
// the same budget simulated from scratch on a fresh service.
func TestExtendJobWarmStart(t *testing.T) {
	var stats metrics.ServiceStats
	ts, _ := newTestServer(t, server.Config{Workers: 2, QueueDepth: 8, Stats: &stats})

	code, body, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":512,"max_refs":40000}`)
	if code != http.StatusOK {
		t.Fatalf("base run: %d %s", code, body)
	}

	code, body, _ = post(t, ts.URL+"/v1/jobs",
		`{"kind":"extend","scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":512,"max_refs":40000,"extend_refs":20000}`)
	if code != http.StatusAccepted {
		t.Fatalf("extend submit: %d %s", code, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Label string `json:"label"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.Label, "extend:") || !strings.HasSuffix(st.Label, "+20000") {
		t.Errorf("extend job label = %q", st.Label)
	}
	deadline := time.Now().Add(60 * time.Second)
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("extend job ended %s: %s", st.State, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("extend job never finished")
		}
		time.Sleep(10 * time.Millisecond)
		code, body, _ = get(t, ts.URL+"/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("status poll: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	code, extended, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("extend result: %d %s", code, extended)
	}
	if hits := stats.Get(metrics.SvcCkptHit); hits == 0 {
		t.Error("extend job counted no checkpoint hits; it re-simulated the prefix")
	}

	// A fresh service (empty checkpoint store) simulating the target
	// budget from scratch must produce the identical document.
	ts2, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})
	code, scratch, _ := post(t, ts2.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":512,"max_refs":60000}`)
	if code != http.StatusOK {
		t.Fatalf("scratch run: %d %s", code, scratch)
	}
	if !bytes.Equal(extended, scratch) {
		t.Error("extended document differs from the from-scratch document")
	}

	// The extend cached at its target budget: the equivalent run
	// request is a pure cache hit serving the same bytes.
	code, repeat, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":512,"max_refs":60000}`)
	if code != http.StatusOK || !bytes.Equal(extended, repeat) {
		t.Errorf("run at the extended budget not served from cache (status %d)", code)
	}

	// /metricsz reports the store.
	code, mz, _ := get(t, ts.URL+"/metricsz?format=json")
	if code != http.StatusOK {
		t.Fatalf("metricsz: %d", code)
	}
	var doc struct {
		Counters    map[string]uint64 `json:"counters"`
		Checkpoints struct {
			Entries int   `json:"entries"`
			Bytes   int64 `json:"bytes"`
		} `json:"checkpoints"`
	}
	if err := json.Unmarshal(mz, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Checkpoints.Entries == 0 || doc.Checkpoints.Bytes <= 0 {
		t.Errorf("metricsz checkpoints = %+v, want a populated store", doc.Checkpoints)
	}
	if _, ok := doc.Counters["checkpoint_hits"]; !ok {
		t.Errorf("counters missing checkpoint_hits: %v", doc.Counters)
	}
}

// TestCheckpointDirSurvivesRestart pins the checkpoint directory at
// the service boundary: a CheckpointDir whose parent does not exist is
// created, the checkpoint a run captures is written through to it,
// and a server reopened on the directory warm-starts from it. A
// directory that cannot be created fails New.
func TestCheckpointDirSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing", "checkpoints")
	ts1, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, CheckpointDir: dir})
	code, body, _ := post(t, ts1.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":512,"max_refs":40000}`)
	if code != http.StatusOK {
		t.Fatalf("first run: %d %s", code, body)
	}

	var stats metrics.ServiceStats
	ts2, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4, CheckpointDir: dir, Stats: &stats})
	code, body, _ = post(t, ts2.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":512,"max_refs":60000}`)
	if code != http.StatusOK {
		t.Fatalf("run after reopen: %d %s", code, body)
	}
	if hits, misses := stats.Get(metrics.SvcCkptHit), stats.Get(metrics.SvcCkptMiss); hits != 1 || misses != 0 {
		t.Errorf("reopened server: checkpoint hits/misses = %d/%d, want 1/0", hits, misses)
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := server.New(server.Config{CheckpointDir: filepath.Join(file, "checkpoints")}); err == nil {
		t.Error("New accepted a checkpoint directory under a regular file")
	}
}

// TestServeTable3GoldenE2E is the acceptance gate: the service at the
// default scale serves table3 byte-identical to the committed golden,
// and the repeat is a pure cache hit. It runs the full default-scale
// sweep (~a minute), so it is skipped under -short; the CI golden job
// runs it explicitly.
func TestServeTable3GoldenE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-scale sweep; run without -short (CI golden job)")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "table3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stats metrics.ServiceStats
	svc, err := server.New(server.Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := contextWithTimeout(time.Minute)
		defer cancel()
		svc.Drain(drainCtx)
	})

	code, body, _ := get(t, ts.URL+"/v1/experiments/table3?scale=default")
	if code != http.StatusOK {
		t.Fatalf("status %d: %.200s", code, body)
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("served table3 differs from testdata/golden/table3.json (%d vs %d bytes)", len(body), len(golden))
	}
	runsBefore := stats.Get(metrics.SvcSimRuns)

	code, body2, _ := get(t, ts.URL+"/v1/experiments/table3?scale=default")
	if code != http.StatusOK || !bytes.Equal(body2, golden) {
		t.Fatalf("cached table3 differs from golden (status %d)", code)
	}
	if hits := stats.Get(metrics.SvcCacheHit); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
	if runs := stats.Get(metrics.SvcSimRuns); runs != runsBefore {
		t.Errorf("sim_runs grew %d -> %d on a cached request", runsBefore, runs)
	}
}

// TestServeFigsGoldenE2E extends the served-equivalence gate to the
// breakdown figures: figs 2-4 at the default scale must come back
// byte-identical to the committed goldens, with repeats served from
// cache. Like the table3 gate it runs full default-scale sweeps, so it
// is skipped under -short and run explicitly by the CI golden job.
func TestServeFigsGoldenE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-scale sweeps; run without -short (CI golden job)")
	}
	var stats metrics.ServiceStats
	svc, err := server.New(server.Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := contextWithTimeout(time.Minute)
		defer cancel()
		svc.Drain(drainCtx)
	})

	var wantHits uint64
	for _, id := range []string{"fig2", "fig3", "fig4"} {
		golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		url := ts.URL + "/v1/experiments/" + id + "?scale=default"
		code, body, _ := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %.200s", id, code, body)
		}
		if !bytes.Equal(body, golden) {
			t.Fatalf("served %s differs from testdata/golden/%s.json (%d vs %d bytes)", id, id, len(body), len(golden))
		}
		runsBefore := stats.Get(metrics.SvcSimRuns)

		code, body2, _ := get(t, url)
		if code != http.StatusOK || !bytes.Equal(body2, golden) {
			t.Fatalf("cached %s differs from golden (status %d)", id, code)
		}
		wantHits++
		if hits := stats.Get(metrics.SvcCacheHit); hits != wantHits {
			t.Errorf("%s: cache_hits = %d, want %d", id, hits, wantHits)
		}
		if runs := stats.Get(metrics.SvcSimRuns); runs != runsBefore {
			t.Errorf("%s: sim_runs grew %d -> %d on a cached request", id, runsBefore, runs)
		}
	}
}

// TestServePoliciesGoldenE2E extends the served-equivalence gate to
// the policy lab: the policies experiment (RAMpage under every
// replacement policy at 1 GHz) at the default scale must come back
// byte-identical to the committed golden, with the repeat a pure cache
// hit. Full default-scale sweep, so skipped under -short and run
// explicitly by the CI golden job.
func TestServePoliciesGoldenE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-scale sweep; run without -short (CI golden job)")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "policies.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stats metrics.ServiceStats
	svc, err := server.New(server.Config{Workers: 1, QueueDepth: 4, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := contextWithTimeout(time.Minute)
		defer cancel()
		svc.Drain(drainCtx)
	})

	code, body, _ := get(t, ts.URL+"/v1/experiments/policies?scale=default")
	if code != http.StatusOK {
		t.Fatalf("status %d: %.200s", code, body)
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("served policies differs from testdata/golden/policies.json (%d vs %d bytes)", len(body), len(golden))
	}
	runsBefore := stats.Get(metrics.SvcSimRuns)

	code, body2, _ := get(t, ts.URL+"/v1/experiments/policies?scale=default")
	if code != http.StatusOK || !bytes.Equal(body2, golden) {
		t.Fatalf("cached policies differs from golden (status %d)", code)
	}
	if runs := stats.Get(metrics.SvcSimRuns); runs != runsBefore {
		t.Errorf("sim_runs grew %d -> %d on a cached request", runsBefore, runs)
	}
}

// TestRunWithPolicy pins the run API's policy plumbing: a RAMpage run
// under a non-clock policy succeeds and its report carries the
// rampage+<policy> name; an unknown policy and a policy on a
// conventional system are 400s; and /metricsz exposes the per-policy
// eviction counters.
func TestRunWithPolicy(t *testing.T) {
	ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 4})

	code, body, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":4096,"policy":"fifo"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %.300s", code, body)
	}
	var doc struct {
		Report struct {
			Name string `json:"name"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Report.Name != "rampage+fifo" {
		t.Errorf("report name = %q, want rampage+fifo", doc.Report.Name)
	}

	// An explicit "clock" is the default policy: same document (and
	// cache entry) as not specifying one.
	_, plain, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":4096}`)
	_, clock, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":4096,"policy":"clock"}`)
	if !bytes.Equal(plain, clock) {
		t.Error("policy=clock document differs from the default-policy document")
	}

	if code, body, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"rampage","issue_mhz":1000,"size_bytes":4096,"policy":"lru"}`); code != http.StatusBadRequest {
		t.Errorf("unknown policy: status %d: %.200s", code, body)
	}
	if code, body, _ := post(t, ts.URL+"/v1/runs",
		`{"scale":"tiny","system":"baseline","issue_mhz":1000,"size_bytes":4096,"policy":"fifo"}`); code != http.StatusBadRequest {
		t.Errorf("policy on baseline: status %d: %.200s", code, body)
	}

	code, body, _ = get(t, ts.URL+"/metricsz?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metricsz status %d", code)
	}
	var mz struct {
		PolicyEvictions map[string]uint64 `json:"policy_evictions"`
	}
	if err := json.Unmarshal(body, &mz); err != nil {
		t.Fatal(err)
	}
	if len(mz.PolicyEvictions) != 5 {
		t.Fatalf("policy_evictions has %d keys, want 5: %v", len(mz.PolicyEvictions), mz.PolicyEvictions)
	}
	if _, ok := mz.PolicyEvictions["fifo"]; !ok {
		t.Errorf("policy_evictions missing fifo: %v", mz.PolicyEvictions)
	}
}
