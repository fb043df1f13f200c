package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Routes mounts the coordinator API on mux under /fleet/v1/. The
// protocol is plain JSON over POST (GET for status): register, lease,
// renew, complete, deregister, workers. Unknown-worker conditions map
// to 404 so clients can distinguish "re-register and retry" from
// transport failures.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/fleet/v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeFleet(w, r, &req) {
			return
		}
		resp, err := c.Register(req)
		if err != nil {
			fleetError(w, http.StatusConflict, err)
			return
		}
		fleetJSON(w, resp)
	})
	mux.HandleFunc("/fleet/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeFleet(w, r, &req) {
			return
		}
		resp, err := c.Lease(req)
		if err != nil {
			fleetError(w, statusFor(err), err)
			return
		}
		fleetJSON(w, resp)
	})
	mux.HandleFunc("/fleet/v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !decodeFleet(w, r, &req) {
			return
		}
		if err := c.Renew(req); err != nil {
			fleetError(w, statusFor(err), err)
			return
		}
		fleetJSON(w, struct{}{})
	})
	mux.HandleFunc("/fleet/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeFleet(w, r, &req) {
			return
		}
		if err := c.Complete(req); err != nil {
			fleetError(w, statusFor(err), err)
			return
		}
		fleetJSON(w, struct{}{})
	})
	mux.HandleFunc("/fleet/v1/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			WorkerID string `json:"worker_id"`
		}
		if !decodeFleet(w, r, &req) {
			return
		}
		c.Deregister(req.WorkerID)
		fleetJSON(w, struct{}{})
	})
	mux.HandleFunc("/fleet/v1/workers", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			fleetError(w, http.StatusMethodNotAllowed, errors.New("fleet: GET only"))
			return
		}
		fleetJSON(w, c.Status())
	})
}

func statusFor(err error) int {
	if errors.Is(err, ErrUnknownWorker) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// maxFleetBody bounds every fleet request body. A completion carries
// one report of about 1.3 KB and a renew one 64-hex key per leased
// cell, so the cap leaves ample room while keeping any caller from
// making the coordinator buffer a body of any size.
const maxFleetBody = 1 << 20

func decodeFleet(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		fleetError(w, http.StatusMethodNotAllowed, errors.New("fleet: POST only"))
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFleetBody)).Decode(into); err != nil {
		fleetError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func fleetJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func fleetError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
