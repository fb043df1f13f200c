package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rampage/internal/harness"
	"rampage/internal/jobs"
)

func sseEvents() []jobs.Event {
	return []jobs.Event{
		{Seq: 1, Type: "cell", Cell: json.RawMessage(`{"index":0,"system":"rampage","switch_trace":false,"rate_mhz":200,"size_bytes":4096,"report":{"name":"rampage"}}`)},
		{Seq: 2, Type: "cell", Cell: json.RawMessage(`{"index":1}`)},
		{Seq: 3, Type: "done"},
		{Seq: 4, Type: "failed", Error: "boom: line\ttab"},
		{Seq: 5, Type: "canceled"},
	}
}

// compactJSON normalizes a raw message for comparison: json.Marshal
// compacts embedded RawMessages, so round-tripped cells can differ
// from the original only in insignificant whitespace.
func compactJSON(t testing.TB, raw json.RawMessage) string {
	t.Helper()
	if len(raw) == 0 {
		return ""
	}
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("compact %s: %v", raw, err)
	}
	return b.String()
}

func eventsEqual(t testing.TB, a, b jobs.Event) bool {
	t.Helper()
	return a.Seq == b.Seq && a.Type == b.Type && a.Error == b.Error &&
		compactJSON(t, a.Cell) == compactJSON(t, b.Cell)
}

// TestSSERoundTrip checks parseSSE inverts formatSSE for every event
// shape the stream produces.
func TestSSERoundTrip(t *testing.T) {
	for _, e := range sseEvents() {
		frame, err := formatSSE(e)
		if err != nil {
			t.Fatalf("format %+v: %v", e, err)
		}
		if !bytes.HasSuffix(frame, []byte("\n\n")) {
			t.Fatalf("frame %q does not end with a blank line", frame)
		}
		got, err := parseSSE(frame)
		if err != nil {
			t.Fatalf("parse %q: %v", frame, err)
		}
		if !eventsEqual(t, got, e) {
			t.Fatalf("round trip %+v -> %q -> %+v", e, frame, got)
		}
	}
}

// TestParseSSERejectsMalformed pins the codec's rejection paths: the
// parser must never silently accept a frame whose envelope disagrees
// with its payload.
func TestParseSSERejectsMalformed(t *testing.T) {
	cases := []struct {
		name, frame, wantErr string
	}{
		{"empty", "", "no data line"},
		{"no data", "id: 1\nevent: done\n\n", "no data line"},
		{"bad id", "id: x\nevent: done\ndata: {\"seq\":1,\"type\":\"done\"}\n\n", "bad SSE id line"},
		{"bad json", "id: 1\nevent: done\ndata: {nope\n\n", "bad SSE data line"},
		{"id mismatch", "id: 2\nevent: done\ndata: {\"seq\":1,\"type\":\"done\"}\n\n", "disagrees with event seq"},
		{"type mismatch", "id: 1\nevent: cell\ndata: {\"seq\":1,\"type\":\"done\"}\n\n", "disagrees with payload type"},
		{"junk line", "id: 1\nevent: done\nretry: 5\ndata: {\"seq\":1,\"type\":\"done\"}\n\n", "unrecognized SSE line"},
	}
	for _, tc := range cases {
		_, err := parseSSE([]byte(tc.frame))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: parseSSE error = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzSSECodec feeds arbitrary bytes to the SSE parser: anything it
// accepts must re-format and re-parse to the same event, and anything
// else must be rejected with an error, never a panic or a mangled
// event.
func FuzzSSECodec(f *testing.F) {
	for _, e := range sseEvents() {
		frame, err := formatSSE(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte("id: 1\nevent: done\nretry: 5\n\n"))
	f.Add([]byte("data: {\"seq\":0,\"type\":\"\"}\n\n"))
	f.Add([]byte("id: 99999999999999999999\nevent: x\ndata: {}\n\n"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		e, err := parseSSE(frame)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		reframed, err := formatSSE(e)
		if err != nil {
			t.Fatalf("parsed event %+v does not re-format: %v", e, err)
		}
		got, err := parseSSE(reframed)
		if err != nil {
			t.Fatalf("re-formatted frame %q does not re-parse: %v", reframed, err)
		}
		if !eventsEqual(t, got, e) {
			t.Fatalf("codec drift: %+v -> %q -> %+v", e, reframed, got)
		}
	})
}

// TestParseCursor pins resume-cursor parsing: empty means from the
// start, decimal sequences pass through, everything else is rejected.
func TestParseCursor(t *testing.T) {
	if n, err := parseCursor(""); n != 0 || err != nil {
		t.Errorf(`parseCursor("") = (%d, %v)`, n, err)
	}
	if n, err := parseCursor("42"); n != 42 || err != nil {
		t.Errorf(`parseCursor("42") = (%d, %v)`, n, err)
	}
	for _, bad := range []string{"abc", "-1", "1.5", "0x10", " 7", "7 ", "+7"} {
		if _, err := parseCursor(bad); err == nil {
			t.Errorf("parseCursor(%q) accepted a malformed cursor", bad)
		}
	}
}

// cachedDoc serializes a document the way the result cache holds it.
func cachedDoc(t *testing.T, doc any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := harness.WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveCell is the payload a live job publishes for one cell.
func liveCell(t *testing.T, k int, spec harness.RunSpec, rep harness.ReportJSON) []byte {
	t.Helper()
	b := cellEvent(k, spec, rep)
	if b == nil {
		t.Fatal("cell payload failed to encode")
	}
	return b
}

// TestSynthesizeEventsExperiment checks that a cache-hit experiment's
// cell events are synthesized from the cached document in canonical
// cell order, byte-identical to the payloads the live job publishes —
// switch-trace flags and policy labels included.
func TestSynthesizeEventsExperiment(t *testing.T) {
	for _, id := range []string{"table4", "policies"} {
		sh, err := harness.ShapeOf(id, []uint64{200, 400}, []uint64{256, 4096})
		if err != nil {
			t.Fatal(err)
		}
		specs := sh.CellSpecs()
		reports := make([]harness.ReportJSON, len(specs))
		for k, spec := range specs {
			reports[k] = harness.ReportJSON{Name: spec.System.String(), ClockMHz: spec.IssueMHz, BlockBytes: spec.SizeBytes, Cycles: uint64(k) * 1e9}
		}
		doc, err := sh.Doc(reports)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := replayCells(cachedDoc(t, doc), specs)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(cells) != len(specs) {
			t.Fatalf("%s: got %d cells, want %d", id, len(cells), len(specs))
		}
		for k, spec := range specs {
			if want := liveCell(t, k, spec, reports[k]); !bytes.Equal(cells[k], want) {
				t.Errorf("%s cell %d:\n got: %s\nwant: %s", id, k, cells[k], want)
			}
		}
	}
}

// TestSynthesizeEventsRun checks the single-cell run form carries the
// run's own spec — a switch-trace run streams "switch_trace":true from
// the cache exactly as it did live.
func TestSynthesizeEventsRun(t *testing.T) {
	spec := harness.RunSpec{System: harness.RAMpageCS, IssueMHz: 500, SizeBytes: 4096, SwitchTrace: true, Policy: "fifo"}
	rep := harness.ReportJSON{Name: "rampage-cs+fifo", ClockMHz: 500, BlockBytes: 4096, Cycles: 12345}
	doc := harness.RunDoc{Version: harness.ReportVersion, Kind: "run", Report: rep}
	cells, err := replayCells(cachedDoc(t, doc), []harness.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || !bytes.Equal(cells[0], liveCell(t, 0, spec, rep)) {
		t.Fatalf("cells = %s, want the live payload %s", cells, liveCell(t, 0, spec, rep))
	}
	var cell cellPayload
	if err := json.Unmarshal(cells[0], &cell); err != nil {
		t.Fatal(err)
	}
	if !cell.SwitchTrace || cell.System != "rampage-cs+fifo" {
		t.Errorf("cell = %+v, want the run's switch trace and policy", cell)
	}
}

// TestSynthesizeEventsErrors pins the refusal paths: malformed
// documents, ragged grids and documents holding a different number of
// reports than the job has cells are errors, not truncated or
// misattributed streams.
func TestSynthesizeEventsErrors(t *testing.T) {
	sh, err := harness.ShapeOf("table3", []uint64{100, 200}, []uint64{128})
	if err != nil {
		t.Fatal(err)
	}
	specs := sh.CellSpecs()
	if _, err := replayCells([]byte(`not json`), specs); err == nil {
		t.Error("non-JSON document accepted")
	}
	for _, ragged := range []string{
		`{"kind":"experiment","systems":[{"rows":[[{"name":"a"}]]},{"rows":[[{}],[{}]]}]}`,
		`{"kind":"experiment","systems":[{"rows":[[{}],[{}]]},{"rows":[[{}],[{},{}]]}]}`,
	} {
		if _, err := replayCells([]byte(ragged), specs); err == nil || !strings.Contains(err.Error(), "ragged") {
			t.Errorf("ragged grid %s: error = %v", ragged, err)
		}
	}
	oneSystem := `{"kind":"experiment","systems":[{"rows":[[{}],[{}]]}]}`
	if _, err := replayCells([]byte(oneSystem), specs); err == nil || !strings.Contains(err.Error(), "2 reports") {
		t.Errorf("short document error = %v", err)
	}
	if _, err := replayCells([]byte(`{"kind":"run"}`), specs[:1]); err == nil {
		t.Error("run document without a report accepted")
	}
	// A cell's bare report is neither document kind.
	if _, err := replayCells([]byte(`{"name":"rampage","cycles":1}`), specs[:1]); err == nil {
		t.Error("bare report accepted as a run document")
	}
}
