package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rampage/internal/cas"
)

// fleetRoutes is a coordinator over an in-memory results store, with
// its routes mounted and one worker registered.
func fleetRoutes(t *testing.T) (*http.ServeMux, *Coordinator, *cas.Store, string) {
	t.Helper()
	store := cas.NewMemory(0, nil, cas.Counters{})
	c, _ := testCoordinator(t, func(cfg *CoordinatorConfig) { cfg.Disk = store })
	resp, err := c.Register(RegisterRequest{Version: ProtoVersion, Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Routes(mux)
	return mux, c, store, resp.WorkerID
}

func postFleet(mux *http.ServeMux, route string, body []byte) int {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/v1/"+route, bytes.NewReader(body)))
	return rec.Code
}

// TestFleetRejectsOverCapBody posts a registered worker's completion
// whose report takes the body past maxFleetBody: it must be refused
// with a 4xx and nothing stored, where an uncapped decoder buffers the
// whole body and writes the report to the results store. A completion
// under the cap is still accepted and stored. Both keys are leased
// first, since only a completion for an active task is stored.
func TestFleetRejectsOverCapBody(t *testing.T) {
	mux, c, store, worker := fleetRoutes(t)
	resCh, errCh := execAsync(c, []CellSpec{{Key: "big"}, {Key: "small"}})
	leaseAll(t, c, worker, 2)
	complete := func(key string, report string) []byte {
		body, err := json.Marshal(CompleteRequest{WorkerID: worker, Key: key, Report: json.RawMessage(report)})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	big := complete("big", `"`+strings.Repeat("x", maxFleetBody)+`"`)
	if code := postFleet(mux, "complete", big); code < 400 || code >= 500 {
		t.Errorf("completion of %d bytes: status %d, want 4xx", len(big), code)
	}
	if _, ok := store.Get("big"); ok {
		t.Error("the over-cap completion's report was stored")
	}
	if code := postFleet(mux, "complete", complete("small", `{"cycles":1}`)); code != http.StatusOK {
		t.Errorf("completion under the cap: status %d, want 200", code)
	}
	if _, ok := store.Get("small"); !ok {
		t.Error("the completion under the cap was not stored")
	}
	if code := postFleet(mux, "complete", complete("big", `{"cycles":2}`)); code != http.StatusOK {
		t.Errorf("completion of the refused key under the cap: status %d, want 200", code)
	}
	if res, err := <-resCh, <-errCh; err != nil || string(res[0]) != `{"cycles":2}` || string(res[1]) != `{"cycles":1}` {
		t.Fatalf("Execute = %q, %v", res, err)
	}
}

// FuzzFleetRequest posts arbitrary bodies to every fleet POST route of
// a coordinator with one registered worker: nothing may panic, and
// every response is a 200 or a 4xx refusal, never a server error.
func FuzzFleetRequest(f *testing.F) {
	routes := []string{"register", "lease", "renew", "complete", "deregister"}
	for i, body := range []string{
		fmt.Sprintf(`{"version":%d,"name":"n","parallel":2}`, ProtoVersion),
		`{"worker_id":"w0001","max":4,"counters":{"runs":3}}`,
		`{"worker_id":"w0001","keys":["k1","k2"]}`,
		`{"worker_id":"w0001","key":"k","report":{"cycles":1}}`,
		`{"worker_id":"w0001"}`,
		`{"worker_id":"nobody","key":"k","error":"boom"}`,
		`{"version":-1}`,
		`[]`,
	} {
		f.Add(uint8(i), []byte(body))
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		mux, _, _, _ := fleetRoutes(t)
		r := routes[int(route)%len(routes)]
		if code := postFleet(mux, r, body); code != http.StatusOK && (code < 400 || code >= 500) {
			t.Fatalf("POST %s %q: status %d, want 200 or 4xx", r, body, code)
		}
	})
}
