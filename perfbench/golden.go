package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rampage/internal/harness"
	"rampage/internal/stats"
)

// goldenSeed is the seed every committed golden was generated with.
const goldenSeed = 42

// cellKey addresses one cell of a golden document.
type cellKey struct {
	doc    string // golden file name without .json
	system string // grid label, e.g. "rampage+fifo"
	mhz    uint64
	size   uint64
}

// goldenCells loads the compact bytes of every cell of the named
// golden documents, so a report can be byte-compared with its cell.
func goldenCells(docs ...string) (map[cellKey][]byte, error) {
	out := make(map[cellKey][]byte)
	for _, name := range docs {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
		if err != nil {
			return nil, err
		}
		if err := docCells(out, name, data); err != nil {
			return nil, fmt.Errorf("golden %s: %w", name, err)
		}
	}
	return out, nil
}

// docCells adds the compact bytes of every cell of an experiment
// document to out, keyed under the given document name.
func docCells(out map[cellKey][]byte, name string, data []byte) error {
	var doc struct {
		Rates   []uint64 `json:"rates_mhz"`
		Sizes   []uint64 `json:"sizes_bytes"`
		Systems []struct {
			System string              `json:"system"`
			Rows   [][]json.RawMessage `json:"rows"`
		} `json:"systems"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	for _, g := range doc.Systems {
		if len(g.Rows) != len(doc.Rates) {
			return fmt.Errorf("grid %s has %d rows for %d rates", g.System, len(g.Rows), len(doc.Rates))
		}
		for i, row := range g.Rows {
			if len(row) != len(doc.Sizes) {
				return fmt.Errorf("grid %s row %d has %d cells for %d sizes", g.System, i, len(row), len(doc.Sizes))
			}
			for j, cell := range row {
				var b bytes.Buffer
				if err := json.Compact(&b, cell); err != nil {
					return err
				}
				out[cellKey{name, g.System, doc.Rates[i], doc.Sizes[j]}] = b.Bytes()
			}
		}
	}
	return nil
}

// cellsOf returns the compact bytes of every cell of a served
// document, keyed without a document name: an experiment document's
// grid cells, or a run document's one report under its point's label.
func cellsOf(req request, data []byte) (map[cellKey][]byte, error) {
	out := make(map[cellKey][]byte)
	if req.exp != nil {
		return out, docCells(out, "", data)
	}
	var doc struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	var rep harness.ReportJSON
	if err := json.Unmarshal(doc.Report, &rep); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := json.Compact(&b, doc.Report); err != nil {
		return nil, err
	}
	out[cellKey{"", req.run.label, rep.ClockMHz, rep.BlockBytes}] = b.Bytes()
	return out, nil
}

// goldenDoc names the golden document a request's cells belong to.
func goldenDoc(req request) string {
	if req.exp != nil {
		return req.exp.id
	}
	return req.run.doc
}

// probeMatches fails the probe unless its report byte-equals want, the
// compact cell the service or another path produced for the same point.
func probeMatches(out *outcome, label string, got *stats.Report, want []byte) {
	out.Attempted++
	a, err := json.Marshal(harness.NewReportJSON(got))
	if err != nil || want == nil || !bytes.Equal(a, want) {
		out.fail("probe %s report differs from the served one", label)
	}
}

// compactReport is a report's compact cell bytes, or nil (which no
// cell equals) if it does not marshal.
func compactReport(r *stats.Report) []byte {
	b, _ := json.Marshal(harness.NewReportJSON(r))
	return b
}
