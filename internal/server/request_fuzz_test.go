package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// maxJobCells bounds the cells any accepted job can have: grids refuse
// repeated values, so at most the 5 systems of the policies experiment
// × the 49 issue rates with an integral picosecond cycle (the divisors
// of 10^6) × the 64 power-of-two sizes.
const maxJobCells = 5 * 49 * 64

// FuzzJobRequest drives arbitrary POST /v1/jobs bodies through
// decodeBody and jobFor, the assembly handleSubmitJob runs before it
// submits: nothing may panic, every refusal is a 4xx, and an accepted
// job has between 1 and maxJobCells cells. The seeds include a run of
// one of a table3 cell's points, a 3000 × 3000 grid of mostly invalid
// values, and a base budget plus extend_refs past 2^64.
func FuzzJobRequest(f *testing.F) {
	grid := make([]string, 3000)
	for i := range grid {
		grid[i] = strconv.Itoa(i + 1)
	}
	list := strings.Join(grid, ",")
	for _, body := range []string{
		`{"kind":"experiment","id":"table3","scale":"quick","rates_mhz":[200],"sizes_bytes":[4096]}`,
		`{"kind":"run","scale":"quick","system":"baseline","issue_mhz":200,"size_bytes":4096}`,
		`{"kind":"experiment","id":"table3","scale":"quick","rates_mhz":[` + list + `],"sizes_bytes":[` + list + `]}`,
		`{"kind":"extend","scale":"quick","system":"rampage","issue_mhz":1000,"size_bytes":512,"max_refs":10,"extend_refs":18446744073709551611}`,
		`{"kind":"run","scale":"quick","system":"rampage","issue_mhz":1000,"size_bytes":512,"metrics":true}`,
		`{"kind":"experiment","id":"policies","sizes_bytes":[1,2,4,8]}`,
		`{"kind":"nope"}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Drain(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobRequest
		if err := decodeBody(httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)), &req, maxRequestBody); err != nil {
			return // handleSubmitJob answers 400
		}
		jreq, err := s.jobFor(req)
		if err != nil {
			var he *httpError
			if errors.As(err, &he) && (he.code < 400 || he.code > 499) {
				t.Fatalf("refused with %d: %v", he.code, err)
			}
			return
		}
		if jreq.Cells < 1 || jreq.Cells > maxJobCells {
			t.Fatalf("accepted a job of %d cells", jreq.Cells)
		}
	})
}
