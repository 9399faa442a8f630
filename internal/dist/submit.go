package dist

// Sweep submissions: the client half of the sweep service. A long-lived
// coordinator (internal/svc) installs a submission hook via HandleSubmit;
// submissions arrive either as a SUBMIT/SWEEP frame pair on the wire
// (SubmitSweep, bashsim -submit) or as a JSON POST /dist/submit from an
// operator's HTTP client, and land in the same hook. A coordinator with no hook (the classic one-shot -serve, or a
// bare NewCoordinator in tests) rejects in-band with a descriptive error
// rather than queueing work it would never run.

import (
	"context"
	"fmt"
	"net/http"
)

// SubmitRequest asks a sweep-service coordinator to queue one named sweep.
type SubmitRequest struct {
	// Exp is the experiment id (experiments.IDs), e.g. "fig1".
	Exp string `json:"exp"`
	// Scale selects the sweep density ("quick" or "full"); empty takes the
	// service's default.
	Scale string `json:"scale,omitempty"`
	// Priority orders the sweep against others: higher-priority sweeps are
	// scheduled (and their jobs granted) first; equal priorities run FIFO.
	// Must be in [0, 1<<20].
	Priority int `json:"priority,omitempty"`
	// Seeds overrides the sweep's per-cell seed list (experiments
	// Options.Seeds); empty takes the per-scale default. The service
	// validates the list (non-empty after parse, no duplicates) and rejects
	// bad lists in-band.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// SubmitResponse acknowledges a submission. Err is the in-band rejection
// (unknown experiment, coordinator not a sweep service, service draining);
// when empty, ID names the queued sweep and Position is its 1-based place
// in the queue at submission time.
type SubmitResponse struct {
	ID       string `json:"id,omitempty"`
	Position int    `json:"position,omitempty"`
	Err      string `json:"err,omitempty"`
}

// HandleSubmit installs fn as the coordinator's sweep-submission hook; the
// service layer calls this once at startup. A nil hook (the default)
// rejects every submission in-band.
func (c *Coordinator) HandleSubmit(fn func(SubmitRequest) SubmitResponse) {
	c.submitMu.Lock()
	c.submit = fn
	c.submitMu.Unlock()
}

// submitRPC is the submission handler: the JSON endpoint and the SUBMIT
// frame both land here.
func (c *Coordinator) submitRPC(req SubmitRequest) SubmitResponse {
	c.submitMu.Lock()
	fn := c.submit
	c.submitMu.Unlock()
	if fn == nil {
		return SubmitResponse{Err: "coordinator is not a sweep service (start one with bashsim -serve and no -exp)"}
	}
	return fn(req)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Priority < 0 || req.Priority > maxSweepPriority {
		http.Error(w, fmt.Sprintf("bad request: sweep priority %d out of range [0, %d]", req.Priority, maxSweepPriority),
			http.StatusBadRequest)
		return
	}
	writeJSON(w, c.submitRPC(req))
}

// SubmitSweep submits one named sweep to a sweep-service coordinator and
// returns its acknowledgment. The submission travels the wire as a
// SUBMIT/SWEEP frame pair, and an in-band rejection surfaces as an error
// with the coordinator's description.
func SubmitSweep(ctx context.Context, o WorkerOptions, req SubmitRequest) (SubmitResponse, error) {
	if req.Priority < 0 || req.Priority > maxSweepPriority {
		return SubmitResponse{}, fmt.Errorf("dist: sweep priority %d out of range [0, %d]", req.Priority, maxSweepPriority)
	}
	tr, err := newTransport(o, nil)
	if err != nil {
		return SubmitResponse{}, err
	}
	defer tr.Close()
	resp, err := tr.Submit(ctx, req)
	if err != nil {
		return SubmitResponse{}, err
	}
	if resp.Err != "" {
		return *resp, fmt.Errorf("dist: coordinator %s rejected the sweep: %s", o.Coordinator, resp.Err)
	}
	return *resp, nil
}
