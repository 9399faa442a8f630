package dist

// Sweep submissions: the client half of the sweep service. A long-lived
// coordinator (internal/svc) installs a submission hook via HandleSubmit;
// a submission is one JSON POST /dist/submit (SubmitSweep, bashsim -submit,
// or any operator's HTTP client), authenticated like /dist/status and never
// a worker session. A coordinator with no hook (the classic one-shot
// -serve, or a bare NewCoordinator in tests) rejects in-band with a
// descriptive error rather than queueing work it would never run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Submission bounds: enough for any sane scheduling scheme and seed
// escalation, tight enough that a hostile or corrupt request cannot mint a
// sweep that preempts everything forever or carries an unbounded seed list.
const (
	maxSweepPriority = 1 << 20
	maxSweepSeeds    = 1 << 12
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
	// Options.Seeds); empty takes the per-scale default. At most 4,096
	// seeds; the service validates the list (non-empty after parse, no
	// duplicates) and rejects bad lists in-band.
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

// handleSubmit serves POST /dist/submit: out-of-range requests get a 400
// before the hook sees them; everything else gets the hook's answer.
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
	if len(req.Seeds) > maxSweepSeeds {
		http.Error(w, fmt.Sprintf("bad request: %d seeds exceed the bound of %d", len(req.Seeds), maxSweepSeeds),
			http.StatusBadRequest)
		return
	}
	c.submitMu.Lock()
	fn := c.submit
	c.submitMu.Unlock()
	if fn == nil {
		writeJSON(w, SubmitResponse{Err: "coordinator is not a sweep service (start one with bashsim -serve and no -exp)"})
		return
	}
	writeJSON(w, fn(req))
}

// SubmitSweep submits one named sweep to a sweep-service coordinator as a
// JSON POST /dist/submit and returns its acknowledgment. Only
// o.Coordinator and o.Secret are used. A secret mismatch returns
// *AuthError; a refused request (HTTP 400) or an in-band rejection
// surfaces as an error with the coordinator's description.
func SubmitSweep(ctx context.Context, o WorkerOptions, req SubmitRequest) (SubmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimRight(o.Coordinator, "/")+"/dist/submit", bytes.NewReader(body))
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("dist: coordinator URL %q: %w", o.Coordinator, err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if o.Secret != "" {
		hr.Header.Set(secretHeader, o.Secret)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("dist: submit: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusUnauthorized:
		return SubmitResponse{}, &AuthError{Coordinator: o.Coordinator}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return SubmitResponse{}, fmt.Errorf("dist: coordinator %s refused the sweep (HTTP %d): %s",
			o.Coordinator, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var ack SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return SubmitResponse{}, fmt.Errorf("dist: submit reply: %w", err)
	}
	if ack.Err != "" {
		return ack, fmt.Errorf("dist: coordinator %s rejected the sweep: %s", o.Coordinator, ack.Err)
	}
	return ack, nil
}
