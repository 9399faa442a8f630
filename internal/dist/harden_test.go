package dist

// White-box tests for the hardened protocol: batched leases with adaptive
// shrink near queue exhaustion, result-reply refills, worker death
// mid-batch (only unfinished jobs reassigned), shared-secret auth, and
// coordinator co-execution. All run in -short (the CI race job).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/runner"
)

// TestBatchedLeaseStreamsAndRefills: one worker drains a whole batch run
// through a single LEASE round-trip — the initial lease grants
// LeaseBatch jobs and every streamed result's reply refills the queue —
// with results folded correctly in job order.
func TestBatchedLeaseStreamsAndRefills(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 3})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	jobs := echoJobs(8)
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

	lease := coord.leaseRPC(leaseRequest{Worker: "w", Kinds: []string{echoKind}})
	if len(lease.Jobs) != 3 {
		t.Fatalf("initial lease granted %d jobs, want LeaseBatch=3", len(lease.Jobs))
	}
	// Stream results one by one, asking for a refill with each; the queue
	// should stay fed without ever sending LEASE again.
	queue := lease.Jobs
	for len(queue) > 0 {
		job := queue[0]
		queue = queue[1:]
		resp := coord.resultRPC(resultRequest{
			Worker: "w", JobID: job.JobID,
			Result: append([]byte("ok:"), job.Spec...),
			Kinds:  []string{echoKind}, Refill: 1,
		})
		if len(resp.Jobs) > 1 {
			t.Fatalf("refill granted %d jobs, want at most the 1 asked for", len(resp.Jobs))
		}
		queue = append(queue, resp.Jobs...)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	for i, out := range res.outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	st := coord.Stats()
	if st.Leases != 1 {
		t.Errorf("Leases = %d, want 1 (refills keep the worker off the lease endpoint)", st.Leases)
	}
	if st.Refills != 5 {
		t.Errorf("Refills = %d, want 5 (8 jobs - 3 in the initial batch)", st.Refills)
	}
	if st.Dispatched != 8 {
		t.Errorf("Dispatched = %d, want 8", st.Dispatched)
	}
}

// TestLeaseShrinksNearExhaustion: a batch larger than the remaining queue
// is cut to the pending jobs' fair share across live workers, so the tail
// of a sweep spreads over the fleet instead of piling onto one straggler;
// a worker's own Max caps the grant too.
func TestLeaseShrinksNearExhaustion(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 8})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(echoJobs(3), runner.Options{})
		done <- err
	}()
	waitActive(t, srv.URL)

	// Register a second live worker, then lease as the first: 3 pending
	// split over 2 live workers is ceil(3/2) = 2, not the full batch of 8.
	coord.heartbeatRPC(heartbeatRequest{Worker: "b"})
	leaseA := coord.leaseRPC(leaseRequest{Worker: "a", Kinds: []string{echoKind}})
	if len(leaseA.Jobs) != 2 {
		t.Errorf("near-exhaustion lease granted %d jobs, want ceil(3 pending / 2 workers) = 2", len(leaseA.Jobs))
	}
	// The other worker asks with Max=1 and gets exactly one.
	leaseB := coord.leaseRPC(leaseRequest{Worker: "b", Kinds: []string{echoKind}, Max: 1})
	if len(leaseB.Jobs) != 1 {
		t.Errorf("Max=1 lease granted %d jobs, want 1", len(leaseB.Jobs))
	}

	for _, job := range append(append([]leasedJob(nil), leaseA.Jobs...), leaseB.Jobs...) {
		coord.resultRPC(resultRequest{
			Worker: job.Label, JobID: job.JobID, Result: append([]byte("ok:"), job.Spec...),
		})
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWorkerDeathMidBatchReassignsOnlyUnfinished: a worker that leased a
// batch of 4, streamed back 2 results, and died loses only the 2 unfinished
// jobs to reassignment — the streamed results stay completed and are never
// re-executed.
func TestWorkerDeathMidBatchReassignsOnlyUnfinished(t *testing.T) {
	const kind = "dist-test.count"
	var executed atomic.Uint64
	runner.RegisterExecutor(kind, func(spec []byte) ([]byte, error) {
		executed.Add(1)
		return append([]byte("exec:"), spec...), nil
	})
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 150 * time.Millisecond, LeaseBatch: 4})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	jobs := make([]runner.Job, 4)
	for i := range jobs {
		jobs[i] = runner.Job{Kind: kind, Key: fmt.Sprintf("c%d", i), Label: fmt.Sprintf("count job %d", i), Spec: []byte{byte('a' + i)}}
	}
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

	// The doomed worker takes the whole batch, streams back the first two
	// results without asking for refills, and is never heard from again.
	lease := coord.leaseRPC(leaseRequest{Worker: "doomed", Kinds: []string{kind}})
	if len(lease.Jobs) != 4 {
		t.Fatalf("doomed lease granted %d jobs, want the whole batch of 4", len(lease.Jobs))
	}
	for _, job := range lease.Jobs[:2] {
		coord.resultRPC(resultRequest{
			Worker: "doomed", JobID: job.JobID, Result: append([]byte("doomed:"), job.Spec...),
		})
	}

	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "healthy", Poll: 10 * time.Millisecond, Kinds: []string{kind}})

	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	for i, out := range res.outs {
		want := "doomed:" + string(jobs[i].Spec)
		if i >= 2 {
			want = "exec:" + string(jobs[i].Spec)
		}
		if string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	if got := coord.Stats().Reassigned; got != 2 {
		t.Errorf("Reassigned = %d, want 2 (only the unfinished half of the batch)", got)
	}
	if got := executed.Load(); got != 2 {
		t.Errorf("healthy worker executed %d jobs, want 2 (streamed results never re-run)", got)
	}
}

// TestAuthRejectsWrongSecret: with a coordinator secret set, a wire
// connection whose HELLO carries a missing or wrong secret is refused with
// an auth-flagged ERROR frame, the HTTP surfaces (/dist/status,
// /dist/submit) answer 401, nothing touches coordinator state, and a
// worker started with the wrong secret exits with a descriptive *AuthError
// instead of polling forever.
func TestAuthRejectsWrongSecret(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, Secret: "s3cret"})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	for _, secret := range []string{"", "wrong", "s3cret-but-longer"} {
		conn, r, err := coord.pipeConnect(context.Background())
		if err != nil {
			t.Fatalf("pipe: %v", err)
		}
		if err := writeHello(wire.NewWriter(conn), "w", secret, ""); err != nil {
			t.Fatalf("hello: %v", err)
		}
		h, _, err := wire.NewReader(r).ReadFrame()
		conn.Close()
		if err != nil || h.Type != wire.FrameError || h.Flags&wire.FlagAuthFailed == 0 {
			t.Errorf("HELLO with secret %q: got %s (flags %#x, err %v), want an auth-flagged ERROR",
				secret, wire.TypeName(h.Type), h.Flags, err)
		}
		for _, path := range []string{"GET /dist/status", "POST /dist/submit"} {
			method, route, _ := strings.Cut(path, " ")
			req, err := http.NewRequest(method, srv.URL+route, strings.NewReader(`{"exp":"fig1"}`))
			if err != nil {
				t.Fatal(err)
			}
			if secret != "" {
				req.Header.Set(secretHeader, secret)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s with secret %q: HTTP %d, want 401", path, secret, resp.StatusCode)
			}
		}
	}
	if _, _, _, _, err := Status(nil, nil, srv.URL, "wrong"); !errors.As(err, new(*AuthError)) {
		t.Errorf("Status with wrong secret returned %v, want *AuthError", err)
	}
	if coord.Workers() != 0 || coord.Stats().Dispatched != 0 {
		t.Error("rejected requests mutated coordinator state")
	}

	// A wrong-secret worker fails fast with the descriptive error.
	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv.URL, Name: "intruder", Kinds: []string{echoKind},
		Secret: "wrong", Poll: 5 * time.Millisecond,
	})
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Fatalf("wrong-secret RunWorker returned %v (%T), want *AuthError", err, err)
	}
	if !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), "secret") {
		t.Errorf("AuthError %q not descriptive", err)
	}
}

// TestAuthedFleetCompletes: a correctly authed worker fleet (batched)
// drains a run; the status endpoint answers with the secret attached.
func TestAuthedFleetCompletes(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 2, Secret: "s3cret"})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: srv.URL, Name: "w", Poll: 5 * time.Millisecond,
		Kinds: []string{echoKind}, Secret: "s3cret",
	})
	jobs := echoJobs(5)
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	if _, _, workers, _, err := Status(nil, nil, srv.URL, "s3cret"); err != nil || workers < 1 {
		t.Errorf("authed Status = %d workers, err %v; want >= 1 worker, nil error", workers, err)
	}
}

// TestCoExecuteAloneDrainsBatch: with co-execution enabled, a lone
// coordinator — no external workers anywhere — completes its own batch
// over its in-memory wire connection, auth included. The connection shows
// in the status snapshot like any worker's, and once the Run releases
// co-execution every goroutine it started (slots, read loops, the
// coordinator's side of the pipe) exits.
func TestCoExecuteAloneDrainsBatch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	coord := NewCoordinator(CoordinatorOptions{
		LeaseTTL: time.Second, LeaseBatch: 2, Secret: "s3cret", CoExecute: 2,
	})
	jobs := echoJobs(6)
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	st := coord.Stats()
	if st.Completed != 6 {
		t.Errorf("Completed = %d, want 6", st.Completed)
	}
	if st.Leases < 1 {
		t.Error("co-execution never leased (did the in-process worker run?)")
	}
	if coord.Workers() < 1 {
		t.Error("in-process worker not counted live")
	}
	var conns []WireConnStatus
	for _, wc := range coord.Snapshot().WireConns {
		if wc.Worker == "coordinator" {
			conns = append(conns, wc)
		}
	}
	if len(conns) != 1 || conns[0].FramesIn == 0 || conns[0].FramesOut == 0 {
		t.Errorf("co-execution wire connections = %+v, want one with frames counted both ways", conns)
	}
	if st.FramesIn == 0 || st.FramesOut == 0 {
		t.Errorf("frame counters = %d in / %d out, want both > 0", st.FramesIn, st.FramesOut)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after co-execution released, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoExecutionRacesExternalWorkers: co-execution slots and external
// workers compete for the same queue — including the last job — and the
// fold is still correct and complete. Runs under -race in CI.
func TestCoExecutionRacesExternalWorkers(t *testing.T) {
	const kind = "dist-test.tiny"
	runner.RegisterExecutor(kind, func(spec []byte) ([]byte, error) {
		time.Sleep(time.Millisecond) // enough to interleave slots
		return append([]byte("ok:"), spec...), nil
	})
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second, LeaseBatch: 4, CoExecute: 2})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := testContext(t)
	defer cancel()
	for i := 0; i < 2; i++ {
		go RunWorker(ctx, WorkerOptions{
			Coordinator: srv.URL, Name: fmt.Sprintf("ext-%d", i),
			Poll: 2 * time.Millisecond, Kinds: []string{kind},
		})
	}
	jobs := make([]runner.Job, 30)
	for i := range jobs {
		jobs[i] = runner.Job{Kind: kind, Key: fmt.Sprintf("t%d", i), Label: fmt.Sprintf("tiny %d", i), Spec: []byte{byte(i)}}
	}
	outs, err := coord.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, out := range outs {
		if want := "ok:" + string(jobs[i].Spec); string(out) != want {
			t.Errorf("job %d result %q, want %q", i, out, want)
		}
	}
	if st := coord.Stats(); st.Completed != 30 {
		t.Errorf("Completed = %d, want 30", st.Completed)
	}
}

// TestProgressStreamsToWorkers: lease, heartbeat, and result replies carry
// sweep-wide done/total, and a worker's log shows the fleet progress.
func TestProgressStreamsToWorkers(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 300 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(echoJobs(2), runner.Options{})
		done <- err
	}()
	waitActive(t, srv.URL)

	// Complete job 1 by hand, then observe its completion on every reply
	// kind the protocol has.
	lease := coord.leaseRPC(leaseRequest{Worker: "manual", Kinds: []string{echoKind}, Max: 1})
	if len(lease.Jobs) != 1 {
		t.Fatalf("lease granted %d jobs, want 1", len(lease.Jobs))
	}
	if lease.Total != 2 || lease.Done != 0 {
		t.Errorf("lease reply progress %d/%d, want 0/2", lease.Done, lease.Total)
	}
	rres := coord.resultRPC(resultRequest{
		Worker: "manual", JobID: lease.Jobs[0].JobID,
		Result: append([]byte("ok:"), lease.Jobs[0].Spec...),
	})
	if rres.Done != 1 || rres.Total != 2 {
		t.Errorf("result reply progress %d/%d, want 1/2", rres.Done, rres.Total)
	}
	if hb := coord.heartbeatRPC(heartbeatRequest{Worker: "manual"}); !hb.Active || hb.Done != 1 || hb.Total != 2 {
		t.Errorf("heartbeat reply = active %t %d/%d, want active 1/2", hb.Active, hb.Done, hb.Total)
	}

	// A real worker finishes the rest and logs fleet progress.
	var logMu sync.Mutex
	var logs []string
	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: srv.URL, Name: "w", Poll: 5 * time.Millisecond, Kinds: []string{echoKind},
		Log: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Run returns the moment the last result lands server-side; give the
	// worker a beat to process the reply that carries the 2/2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		logMu.Lock()
		for _, line := range logs {
			if strings.Contains(line, "2/2 cells done fleet-wide") {
				logMu.Unlock()
				return
			}
		}
		if time.Now().After(deadline) {
			t.Errorf("worker log shows no fleet progress line; got %q", logs)
			logMu.Unlock()
			return
		}
		logMu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}
