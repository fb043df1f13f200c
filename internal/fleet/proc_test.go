// Multi-process fleet tests: the CI harness behind the fleet job.
// They build the real rampage-server binary (with -race when the test
// binary itself is race-instrumented), boot a coordinator and worker
// processes on localhost, and hold the service to its byte-identity
// guarantees — fresh fleet run, disk-store restart, and a SIGKILLed
// worker mid-sweep must all serve documents byte-identical to the
// committed goldens. Skipped under -short: they run full default-scale
// sweeps.
package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

var buildOnce struct {
	sync.Once
	bin string
	err error
}

// serverBinary builds cmd/rampage-server once per test run.
func serverBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rampage-fleet-*")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "rampage-server")
		args := []string{"build"}
		if raceEnabled {
			args = append(args, "-race")
		}
		args = append(args, "-o", bin, "rampage/cmd/rampage-server")
		cmd := exec.Command("go", args...)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

func repoRoot() string {
	wd, _ := os.Getwd()
	return filepath.Join(wd, "..", "..")
}

// freePort grabs an ephemeral localhost port. The tiny close-to-bind
// window is fine for tests.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// proc wraps one fleet process with logging and cleanup. done is
// closed when the process exits.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

func startProc(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := os.CreateTemp(t.TempDir(), name+"-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			cmd.Process.Kill()
			<-p.done
		}
		out.Close()
		if t.Failed() {
			if log, err := os.ReadFile(out.Name()); err == nil && len(log) > 0 {
				t.Logf("%s log:\n%s", name, log)
			}
		}
	})
	return p
}

// signal sends sig and waits for exit (up to 30s).
func (p *proc) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("%s: signal: %v", p.name, err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not exit after %v", p.name, sig)
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator at %s never became healthy: %v", base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fleetStatus is the subset of the coordinator's worker document the
// tests read.
type fleetStatus struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Workers []struct {
		ID       string `json:"id"`
		Name     string `json:"name"`
		Inflight int    `json:"inflight"`
	} `json:"workers"`
}

func getFleetStatus(t *testing.T, base string) fleetStatus {
	t.Helper()
	resp, err := http.Get(base + "/fleet/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitWorkers(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for len(getFleetStatus(t, base).Workers) < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d workers registered", n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getCounters(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Counters
}

func getBody(t *testing.T, url string, timeout time.Duration) (int, []byte) {
	t.Helper()
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func golden(t *testing.T, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot(), "testdata", "golden", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func startCoordinator(t *testing.T, bin, storeDir string, extra ...string) (p *proc, base string) {
	t.Helper()
	port := freePort(t)
	base = fmt.Sprintf("http://127.0.0.1:%d", port)
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", "2", "-queue", "8",
		"-store-dir", storeDir,
	}
	args = append(args, extra...)
	p = startProc(t, "coordinator", bin, args...)
	waitHealthy(t, base)
	return p, base
}

func startWorkerProc(t *testing.T, bin, base, name string) *proc {
	t.Helper()
	return startProc(t, name, bin,
		"-worker", "-coordinator-url", base, "-worker-name", name, "-fleet-parallel", "1")
}

// TestFleetMultiProcessGolden is the CI fleet gate: a coordinator and
// two worker processes serve the six sweep goldens (table3-5, fig2-4;
// the policy lab's golden is served in process by
// TestServePoliciesGoldenE2E) at the default scale byte-identical to
// testdata/golden/, then the whole fleet is
// torn down and a restarted coordinator — no workers at all — serves
// table3 again from its disk store alone, byte-identical, with zero
// new simulation.
func TestFleetMultiProcessGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-scale sweeps across processes; run without -short (CI fleet job)")
	}
	bin := serverBinary(t)
	storeDir := filepath.Join(t.TempDir(), "results")

	coord, base := startCoordinator(t, bin, storeDir)
	w1 := startWorkerProc(t, bin, base, "w1")
	w2 := startWorkerProc(t, bin, base, "w2")
	waitWorkers(t, base, 2)

	for _, id := range []string{"table3", "table4", "table5", "fig2", "fig3", "fig4"} {
		code, body := getBody(t, base+"/v1/experiments/"+id+"?scale=default", 10*time.Minute)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %.300s", id, code, body)
		}
		if want := golden(t, id); !bytes.Equal(body, want) {
			t.Fatalf("fleet-served %s differs from golden (%d vs %d bytes)", id, len(body), len(want))
		}
	}
	counters := getCounters(t, base)
	if counters["fleet_cells_completed"] == 0 {
		t.Error("no cells went through the fleet")
	}
	if counters["fleet_cells_local"] != 0 {
		t.Errorf("coordinator simulated %d cells itself with two live workers", counters["fleet_cells_local"])
	}

	// Tear the whole fleet down (workers drain on SIGTERM, coordinator
	// drains and persists), then restart the coordinator alone over the
	// same store directory.
	st := getFleetStatus(t, base)
	if st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("queue not empty before teardown: %+v", st)
	}
	w1.signal(t, syscall.SIGTERM)
	w2.signal(t, syscall.SIGTERM)
	coord.signal(t, syscall.SIGTERM)
	coord2, base2 := startCoordinator(t, bin, storeDir)
	defer coord2.signal(t, syscall.SIGTERM)

	code, body := getBody(t, base2+"/v1/experiments/table3?scale=default", 2*time.Minute)
	if code != http.StatusOK {
		t.Fatalf("restarted: status %d: %.300s", code, body)
	}
	if want := golden(t, "table3"); !bytes.Equal(body, want) {
		t.Fatalf("disk-served table3 differs from golden (%d vs %d bytes)", len(body), len(want))
	}
	counters = getCounters(t, base2)
	if counters["disk_hits"] == 0 {
		t.Error("restarted coordinator took no disk hits")
	}
	if counters["sim_runs"] != 0 {
		t.Errorf("restarted coordinator ran %d simulations; want 0 (disk store should answer)", counters["sim_runs"])
	}
}

// TestFleetWorkerKillChaos is the CI chaos gate: SIGKILL a worker
// while it holds leased cells mid-sweep; the coordinator must requeue
// its cells onto the surviving worker and the final document must
// still match the committed golden byte for byte.
func TestFleetWorkerKillChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-scale sweep across processes; run without -short (CI fleet job)")
	}
	bin := serverBinary(t)
	storeDir := filepath.Join(t.TempDir(), "results")

	_, base := startCoordinator(t, bin, storeDir, "-lease-ttl", "3s")
	victim := startWorkerProc(t, bin, base, "victim")
	startWorkerProc(t, bin, base, "survivor")
	waitWorkers(t, base, 2)

	// Submit table3 asynchronously so the test can watch the fleet
	// while the sweep runs.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"kind":"experiment","id":"table3","scale":"default"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("job submit: status %d, id %q", resp.StatusCode, job.ID)
	}

	// Wait until the victim holds leased cells, then SIGKILL it —
	// no drain, no deregister, mid-simulation.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var inflight int
		for _, w := range getFleetStatus(t, base).Workers {
			if w.Name == "victim" {
				inflight = w.Inflight
			}
		}
		if inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never held a lease")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-victim.done

	// The job must still finish, and its document must match the
	// golden exactly.
	deadline = time.Now().Add(10 * time.Minute)
	for {
		code, body := getBody(t, base+"/v1/jobs/"+job.ID+"/result", time.Minute)
		if code == http.StatusOK {
			if want := golden(t, "table3"); !bytes.Equal(body, want) {
				t.Fatalf("post-chaos table3 differs from golden (%d vs %d bytes)", len(body), len(want))
			}
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("job result: status %d: %.300s", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish after worker kill")
		}
		time.Sleep(250 * time.Millisecond)
	}
	counters := getCounters(t, base)
	if counters["fleet_cells_requeued"] == 0 {
		t.Error("no cells were requeued after the worker was SIGKILLed")
	}
	if counters["fleet_cells_completed"] == 0 {
		t.Error("no cells completed through the fleet")
	}
}
