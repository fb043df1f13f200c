package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"rampage/internal/harness"
	"rampage/internal/jobs"
)

// GET /v1/jobs/{id}/events streams a job's sweep cells as they
// complete. With `Accept: text/event-stream` the response is
// Server-Sent Events (one `id:`/`event:`/`data:` frame per event);
// otherwise it is newline-delimited JSON, one jobs.Event per line.
// Either way the stream replays history from the resume cursor
// (?from=N or the Last-Event-ID header; 0 = everything), follows the
// live tail, and ends after the terminal done/failed/canceled event.
// A subscriber that falls more than eventBuffer events behind is
// dropped mid-stream without a terminal event — it reconnects with
// from set to the last sequence it saw and misses nothing. Jobs
// answered straight from the result cache (including the disk store)
// replay their cell events from the cached document, encoded exactly as
// the live run published them, so streaming clients are agnostic to
// cache hits.

// cellPayload is the per-cell document inside a "cell" event: the
// cell's canonical index (ExperimentShape.CellSpecs order — also
// row-major position in the final document), its grid coordinates and
// its compact ReportJSON.
type cellPayload struct {
	Index       int    `json:"index"`
	System      string `json:"system"`
	SwitchTrace bool   `json:"switch_trace"`
	RateMHz     uint64 `json:"rate_mhz"`
	SizeBytes   uint64 `json:"size_bytes"`
	// Report is a harness.ReportJSON from a live run, or the same
	// report's json.RawMessage from a cached document (a plain []byte
	// would encode as base64); both encode to the same compact bytes.
	Report any `json:"report"`
}

// cellEvent serializes one cell payload for the job event stream; nil
// on a marshal failure (the event is then recorded as count-only
// progress).
func cellEvent(k int, spec harness.RunSpec, report any) []byte {
	b, err := json.Marshal(cellPayload{
		Index:       k,
		System:      harness.SystemLabel(spec.System, spec.Policy),
		SwitchTrace: spec.SwitchTrace,
		RateMHz:     spec.IssueMHz,
		SizeBytes:   spec.SizeBytes,
		Report:      report,
	})
	if err != nil {
		return nil
	}
	return b
}

// eventBuffer is the per-subscriber channel depth: a subscriber that
// falls this many events behind the publisher is dropped (it resumes
// by sequence). Sized to hold the largest default experiment grid (2
// systems x 6 rates x 6 sizes) plus the terminal event.
const eventBuffer = 128

// parseCursor parses a resume cursor (?from= or Last-Event-ID): the
// sequence number of the last event the client saw. Malformed cursors
// are rejected rather than silently replaying from zero, which would
// duplicate everything the client already has.
func parseCursor(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad resume cursor %q: want a decimal event sequence", v)
	}
	return n, nil
}

// formatSSE renders one event as a Server-Sent Events frame:
//
//	id: <seq>
//	event: <type>
//	data: <compact JSON of the event>
//
// followed by a blank line. The data is the same jobs.Event JSON the
// NDJSON fallback emits, so clients can share one decoder.
func formatSSE(e jobs.Event) ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return b.Bytes(), nil
}

// parseSSE decodes one formatSSE frame back into the event. It is the
// codec's inverse — the round-trip is fuzzed — and doubles as the
// reference client decoder the e2e tests use.
func parseSSE(frame []byte) (jobs.Event, error) {
	var (
		e       jobs.Event
		sawData bool
		id      uint64
		typ     string
	)
	sc := bufio.NewScanner(bytes.NewReader(frame))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Frame terminator (or trailing blank).
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				return jobs.Event{}, fmt.Errorf("bad SSE id line %q: %w", line, err)
			}
			id = n
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
				return jobs.Event{}, fmt.Errorf("bad SSE data line: %w", err)
			}
			sawData = true
		default:
			return jobs.Event{}, fmt.Errorf("unrecognized SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Event{}, err
	}
	if !sawData {
		return jobs.Event{}, fmt.Errorf("SSE frame has no data line")
	}
	if e.Seq != id {
		return jobs.Event{}, fmt.Errorf("SSE id %d disagrees with event seq %d", id, e.Seq)
	}
	if e.Type != typ {
		return jobs.Event{}, fmt.Errorf("SSE event type %q disagrees with payload type %q", typ, e.Type)
	}
	return e, nil
}

// replayCells re-derives a finished document's cell events for a
// cache-hit job: the document's reports in CellSpecs order — a run
// document's one report, or an experiment document's grids system by
// system, row by row — each encoded by cellEvent with the spec the
// live job published it with. The cached reports are passed through
// as raw JSON, which cellEvent compacts to the exact bytes the live
// run produced.
func replayCells(data []byte, specs []harness.RunSpec) ([][]byte, error) {
	var doc struct {
		Report  json.RawMessage `json:"report"`
		Systems []struct {
			Rows [][]json.RawMessage `json:"rows"`
		} `json:"systems"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	reports := make([]json.RawMessage, 0, len(specs))
	if doc.Report != nil {
		reports = append(reports, doc.Report)
	}
	for _, grid := range doc.Systems {
		if len(grid.Rows) != len(doc.Systems[0].Rows) {
			return nil, fmt.Errorf("document grid is ragged")
		}
		for _, row := range grid.Rows {
			if len(row) != len(doc.Systems[0].Rows[0]) {
				return nil, fmt.Errorf("document grid is ragged")
			}
			reports = append(reports, row...)
		}
	}
	if len(reports) != len(specs) {
		return nil, fmt.Errorf("document holds %d reports, the job has %d cells", len(reports), len(specs))
	}
	cells := make([][]byte, len(specs))
	for k, spec := range specs {
		cells[k] = cellEvent(k, spec, reports[k])
	}
	return cells, nil
}

// handleJobEvents serves GET /v1/jobs/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	cursor := r.URL.Query().Get("from")
	if cursor == "" {
		cursor = r.Header.Get("Last-Event-ID")
	}
	from, err := parseCursor(cursor)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	replay, tail, cancel := j.Events().Subscribe(from, eventBuffer)
	defer cancel()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	writeEvent := func(e jobs.Event) bool {
		var (
			frame []byte
			ferr  error
		)
		if sse {
			frame, ferr = formatSSE(e)
		} else {
			frame, ferr = json.Marshal(e)
			frame = append(frame, '\n')
		}
		if ferr != nil {
			return false
		}
		if _, werr := w.Write(frame); werr != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	for _, e := range replay {
		if !writeEvent(e) || e.Terminal() {
			return
		}
	}
	if tail == nil {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case e, ok := <-tail:
			if !ok {
				// Dropped as a slow subscriber (no terminal event was
				// delivered): end the stream; the client resumes with
				// from = last seen sequence.
				return
			}
			if !writeEvent(e) || e.Terminal() {
				return
			}
		}
	}
}
