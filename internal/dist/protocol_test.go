package dist

// White-box protocol tests: drive the coordinator's RPC handlers (the ones
// the LEASE/HEARTBEAT/RESULT frames dispatch to) the way a (possibly
// dying) worker would, and assert the lease machinery — reassignment after
// expiry, the expiry budget, status reporting — without any simulator
// involvement.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// testContext returns a cancelable context for in-process workers.
func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithCancel(context.Background())
}

const echoKind = "dist-test.echo"

func init() {
	runner.RegisterExecutor(echoKind, func(spec []byte) ([]byte, error) {
		return append([]byte("ok:"), spec...), nil
	})
}

func echoJobs(n int) []runner.Job {
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = runner.Job{
			Kind:  echoKind,
			Key:   fmt.Sprintf("echo-%d", i),
			Label: fmt.Sprintf("echo job %d", i),
			Spec:  []byte{byte('a' + i)},
		}
	}
	return jobs
}

// waitActive polls until the coordinator reports an active batch.
func waitActive(t *testing.T, srvURL string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srvURL + "/dist/status")
		if err == nil {
			var st StatusSnapshot
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.Active {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("batch never became active")
}

// TestLeaseReassignment: a worker that leases a job and dies (never
// heartbeats, never posts) only delays it — the lease expires and another
// worker completes the batch with correct, in-order results.
func TestLeaseReassignment(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 150 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	jobs := echoJobs(3)
	type runOut struct {
		outs [][]byte
		err  error
	}
	done := make(chan runOut, 1)
	go func() {
		outs, err := coord.Run(jobs, runner.Options{})
		done <- runOut{outs, err}
	}()
	waitActive(t, srv.URL)

	// The doomed worker takes one job and is never heard from again.
	if lease := coord.leaseRPC(leaseRequest{Worker: "doomed", Kinds: []string{echoKind}}); len(lease.Jobs) == 0 {
		t.Fatal("doomed lease granted nothing")
	}

	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: srv.URL, Name: "healthy", Poll: 10 * time.Millisecond,
		Kinds: []string{echoKind},
	})

	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	for i, out := range res.outs {
		want := "ok:" + string(jobs[i].Spec)
		if string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	if got := coord.Stats().Reassigned; got < 1 {
		t.Errorf("Reassigned = %d, want >= 1 (the doomed worker's lease)", got)
	}
}

// TestExpiryBudget: a job whose lease keeps expiring fails the batch with a
// descriptive error instead of ping-ponging between dying workers forever.
func TestExpiryBudget(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 60 * time.Millisecond, MaxLeaseExpiries: 1})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(echoJobs(1), runner.Options{})
		done <- err
	}()
	waitActive(t, srv.URL)

	// A stream of doomed workers: lease, die, repeat.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			coord.leaseRPC(leaseRequest{Worker: fmt.Sprintf("doomed-%d", i), Kinds: []string{echoKind}})
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()

	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "lease expired") {
			t.Fatalf("Run error = %v, want lease-expiry failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch never failed")
	}
}

// TestWorkerPanicSurfacesAsPanicError: a worker-side executor panic comes
// back as *runner.PanicError carrying the job label and the remote stack,
// exactly like an in-process pool panic.
func TestWorkerPanicSurfacesAsPanicError(t *testing.T) {
	const kind = "dist-test.panic"
	runner.RegisterExecutor(kind, func(spec []byte) ([]byte, error) {
		panic("simulated cell blew up")
	})
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "w", Poll: 10 * time.Millisecond, Kinds: []string{kind}})

	_, err := coord.Run([]runner.Job{{Kind: kind, Key: "p", Label: "exploding job"}}, runner.Options{})
	pe, ok := err.(*runner.PanicError)
	if !ok {
		t.Fatalf("Run error = %v (%T), want *runner.PanicError", err, err)
	}
	if pe.Label != "exploding job" || !strings.Contains(fmt.Sprint(pe.Value), "simulated cell blew up") {
		t.Errorf("PanicError = label %q value %v", pe.Label, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no remote stack")
	}
}

// TestRunCanceledReturnsPartialResults: canceling the batch context returns
// the context error with whatever completed; pending jobs are dropped.
func TestRunCanceledReturnsPartialResults(t *testing.T) {
	const kind = "dist-test.slow"
	gate := make(chan struct{})
	runner.RegisterExecutor(kind, func(spec []byte) ([]byte, error) {
		if spec[0] != 0 {
			<-gate // all but the first job block
		}
		return []byte("done"), nil
	})
	defer close(gate)

	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "w", Slots: 2, Poll: 5 * time.Millisecond, Kinds: []string{kind}})

	jobs := []runner.Job{
		{Kind: kind, Key: "fast", Label: "fast", Spec: []byte{0}},
		{Kind: kind, Key: "slow", Label: "slow", Spec: []byte{1}},
	}
	runCtx, runCancel := testContext(t)
	var sawFast bool
	outs, err := coord.Run(jobs, runner.Options{
		Context: runCtx,
		Progress: func(done, total int) {
			sawFast = true
			runCancel() // cancel as soon as the fast job lands
		},
	})
	if err == nil {
		t.Fatal("canceled Run returned nil error")
	}
	if !sawFast {
		t.Fatal("fast job never completed")
	}
	if string(outs[0]) != "done" {
		t.Errorf("fast job result lost: %q", outs[0])
	}
	if outs[1] != nil {
		t.Errorf("blocked job has a result: %q", outs[1])
	}
}

// TestProgressCallbackMayReenterCoordinator: the progress callback is user
// code and may call back into the Coordinator (the CLI's progress line asks
// Workers() and Stats()); it must therefore never run under the coordinator
// mutex. Before the fix this deadlocked on the first completed job.
func TestProgressCallbackMayReenterCoordinator(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "w", Poll: 5 * time.Millisecond, Kinds: []string{echoKind}})

	var last, peakWorkers int
	outs, err := coord.Run(echoJobs(4), runner.Options{
		Progress: func(done, total int) {
			last = done
			if w := coord.Workers(); w > peakWorkers { // re-enters the coordinator
				peakWorkers = w
			}
			coord.Stats()
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if last != 4 || len(outs) != 4 {
		t.Errorf("progress ended at %d with %d results, want 4/4", last, len(outs))
	}
	if peakWorkers < 1 {
		t.Errorf("Workers() inside the callback saw %d workers, want >= 1", peakWorkers)
	}
}

// TestReassignedCountsOnlyRequeues: a terminal expiry (budget exhausted)
// counts as Failed, not as another reassignment.
func TestReassignedCountsOnlyRequeues(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 50 * time.Millisecond, MaxLeaseExpiries: 1})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(echoJobs(1), runner.Options{})
		done <- err
	}()
	waitActive(t, srv.URL)
	// Two doomed leases: the first expiry requeues, the second is terminal.
	for i := 0; i < 2; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if lease := coord.leaseRPC(leaseRequest{Worker: fmt.Sprintf("doomed-%d", i), Kinds: []string{echoKind}}); len(lease.Jobs) > 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := <-done; err == nil {
		t.Fatal("budget-exhausted batch did not fail")
	}
	st := coord.Stats()
	if st.Reassigned != 1 {
		t.Errorf("Reassigned = %d, want 1 (only the requeue counts)", st.Reassigned)
	}
	if st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
}

// TestBareWorkerLeasesNothing: a worker advertising no kinds is granted no
// jobs (one misconfigured worker must not steal and terminally fail a
// healthy fleet's jobs), and RunWorker refuses to start kindless.
func TestBareWorkerLeasesNothing(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := testContext(t)
		defer cancel()
		go RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "healthy", Poll: 5 * time.Millisecond, Kinds: []string{echoKind}})
		if _, err := coord.Run(echoJobs(2), runner.Options{}); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	// A bare worker hammers the queue the whole time and must get nothing.
	for {
		select {
		case <-done:
			return
		default:
		}
		if lease := coord.leaseRPC(leaseRequest{Worker: "bare"}); len(lease.Jobs) > 0 {
			t.Fatalf("kindless worker was granted %d job(s) (first: %+v)", len(lease.Jobs), lease.Jobs[0])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunWorkerRefusesWithoutKinds: starting a worker with no executors
// registered and no Kinds configured is a configuration error.
func TestRunWorkerRefusesWithoutKinds(t *testing.T) {
	err := RunWorker(context.Background(), WorkerOptions{Coordinator: "http://127.0.0.1:1", Kinds: []string{}})
	if err == nil || !strings.Contains(err.Error(), "no job kinds") {
		t.Errorf("kindless RunWorker returned %v, want a configuration error", err)
	}
}

// TestStatusReportsProgressAndWorkers exercises the status endpoint and the
// worker-liveness window.
func TestStatusReportsProgressAndWorkers(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	if n := coord.Workers(); n != 0 {
		t.Fatalf("idle coordinator reports %d workers", n)
	}
	if hb := coord.heartbeatRPC(heartbeatRequest{Worker: "w1"}); hb.Active {
		t.Error("heartbeat reports an active batch on an idle coordinator")
	}
	if n := coord.Workers(); n != 1 {
		t.Errorf("Workers = %d after heartbeat, want 1", n)
	}
	done, total, workers, active, err := Status(nil, nil, srv.URL, "")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if active || done != 0 || total != 0 || workers != 1 {
		t.Errorf("Status = done %d total %d workers %d active %t", done, total, workers, active)
	}
}

// TestSubmitterIsNotAWorker: a sweep submission is one HTTP request, not a
// worker session. The submitting client must not count as a live worker
// (which would shrink every grant's fair share for three lease TTLs) nor
// appear among the wire connections in /dist/status.
func TestSubmitterIsNotAWorker(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	coord.HandleSubmit(func(SubmitRequest) SubmitResponse { return SubmitResponse{ID: "s001", Position: 1} })
	url := serveWire(t, coord)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := SubmitSweep(ctx, WorkerOptions{Coordinator: url}, SubmitRequest{Exp: "fig1"})
	if err != nil || resp.ID != "s001" {
		t.Fatalf("SubmitSweep = %+v, %v; want sweep s001", resp, err)
	}
	if n := coord.Workers(); n != 0 {
		t.Errorf("Workers() = %d after a submission, want 0", n)
	}
	if conns := coord.Snapshot().WireConns; len(conns) != 0 {
		t.Errorf("a submission left wire connections in the status: %+v", conns)
	}
}
