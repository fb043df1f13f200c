package server

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
	"strings"
	"testing"
)

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// compareServer returns a one-worker service for compare requests.
func compareServer(tb testing.TB) *Server {
	tb.Helper()
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Drain(context.Background()) })
	return s
}

// postCompare serves one POST /v1/compare body in process.
func postCompare(s *Server, body io.Reader) (int, compareResponse) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compare", body))
	var resp compareResponse
	if rec.Code == http.StatusOK {
		json.Unmarshal(rec.Body.Bytes(), &resp)
	}
	return rec.Code, resp
}

// fig4Golden is a small committed document.
func fig4Golden(tb testing.TB) []byte {
	tb.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "fig4.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// TestCompareBodyCapped pins the compare endpoint's body bound: a
// self-comparison of a golden compares equal, and the same request
// padded with whitespace past maxCompareBody is refused with 400
// instead of being buffered whole.
func TestCompareBodyCapped(t *testing.T) {
	s := compareServer(t)
	doc := string(fig4Golden(t))
	body := func(pad int64) io.Reader {
		return io.MultiReader(strings.NewReader(`{"golden":`+doc+`,"candidate":`+doc),
			io.LimitReader(spaces{}, pad), strings.NewReader("}"))
	}
	if code, resp := postCompare(s, body(1<<10)); code != http.StatusOK || !resp.Equal {
		t.Fatalf("padded self-compare under the cap = %d (equal %v), want 200 and equal", code, resp.Equal)
	}
	if code, _ := postCompare(s, body(maxCompareBody)); code != http.StatusBadRequest {
		t.Fatalf("compare body over %d bytes = %d, want 400", maxCompareBody, code)
	}
}

// FuzzCompareRequest drives arbitrary bytes through POST /v1/compare,
// once as the whole body and once, when they are JSON, as a document
// compared with itself: nothing may panic, every refusal is a 4xx,
// and a document the endpoint accepts is equal to itself.
func FuzzCompareRequest(f *testing.F) {
	for _, seed := range [][]byte{
		fig4Golden(f),
		[]byte(`{"golden":{"version":1,"id":"a"},"candidate":{"version":1,"id":"b"}}`),
		[]byte(`{"golden":"j1","candidate":{}}`),
		[]byte(`{"version":2,"systems":[{"rows":[[{"cycles":1}]]}]}`),
		[]byte(`[1,"x",null,true,{"a":[]}]`),
		[]byte(`not json`),
	} {
		f.Add(seed)
	}
	s := compareServer(f)
	okOr4xx := func(t *testing.T, what string, code int) {
		if code != http.StatusOK && (code < 400 || code > 499) {
			t.Fatalf("%s answered %d", what, code)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		code, _ := postCompare(s, bytes.NewReader(data))
		okOr4xx(t, "body", code)
		if !json.Valid(data) {
			return
		}
		self := fmt.Sprintf(`{"golden":%s,"candidate":%s}`, data, data)
		code, resp := postCompare(s, strings.NewReader(self))
		okOr4xx(t, "self-compare", code)
		if code == http.StatusOK && !resp.Equal {
			t.Fatalf("a document differs from itself: %v", resp.Diffs)
		}
	})
}
