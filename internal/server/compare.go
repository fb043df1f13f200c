package server

import (
	"encoding/json"
	"net/http"

	"rampage/internal/regress"
)

// maxCompareBody bounds a POST /v1/compare body at two inline copies
// of the largest document the service can build. An accepted job has
// at most 5 systems (the policy lab's) × 49 issue rates (the divisors
// of 10^6, the rates with an integral picosecond cycle) × 64
// power-of-two sizes = 15,680 cells, and WriteJSON renders a report in
// ≈1.27 KB (1,300 B rounded up), so a side is ≈20 MB. A side named by
// job ID is fetched from the service, not sent, and costs nothing here.
const maxCompareBody = 2 * (5 * 49 * 64) * 1_300

// compareRequest is the POST /v1/compare body. Each side is either a
// JSON string naming a finished job (its result document is fetched)
// or an inline result document. golden is the want side, candidate the
// got side — same convention as the regress CLI.
type compareRequest struct {
	Golden    json.RawMessage `json:"golden"`
	Candidate json.RawMessage `json:"candidate"`
}

type compareResponse struct {
	Equal bool     `json:"equal"`
	Diffs []string `json:"diffs,omitempty"`
}

// resolveCompareSide turns one side of a compare request into document
// bytes: a JSON string is a job ID, anything else is taken as an
// inline document.
func (s *Server) resolveCompareSide(raw json.RawMessage, side string) ([]byte, string, bool) {
	if len(raw) == 0 {
		return nil, side + ": missing", false
	}
	var id string
	if err := json.Unmarshal(raw, &id); err == nil {
		j, ok := s.mgr.Get(id)
		if !ok {
			return nil, side + ": unknown job " + id, false
		}
		data, rerr := j.Result()
		if rerr != nil {
			return nil, side + ": job " + id + ": " + rerr.Error(), false
		}
		return data, "", true
	}
	return raw, "", true
}

// handleCompare serves POST /v1/compare: an exact report comparison
// using the same comparator as the tools/regress CLI, so a divergence
// the CLI gate would flag is exactly what this endpoint reports.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if err := decodeBody(r, &req, maxCompareBody); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	golden, msg, ok := s.resolveCompareSide(req.Golden, "golden")
	if !ok {
		writeError(w, http.StatusBadRequest, msg)
		return
	}
	candidate, msg, ok := s.resolveCompareSide(req.Candidate, "candidate")
	if !ok {
		writeError(w, http.StatusBadRequest, msg)
		return
	}
	diffs, err := regress.CompareReportBytes(golden, candidate)
	if err != nil {
		// Hard comparator errors (malformed document, schema version
		// mismatch) are the caller's problem, not a divergence list.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, compareResponse{Equal: len(diffs) == 0, Diffs: diffs})
}
