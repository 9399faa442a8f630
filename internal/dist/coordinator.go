package dist

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// CoordinatorOptions tunes the lease protocol.
type CoordinatorOptions struct {
	// LeaseTTL is how long a worker may hold a job between contacts
	// (lease grant, heartbeat) before the job is reassigned. Zero selects
	// 15s. Workers heartbeat at a third of the TTL, so the TTL bounds how
	// long a dead worker delays its jobs, not how long a job may run.
	LeaseTTL time.Duration
	// MaxLeaseExpiries bounds how many times one job may be reassigned
	// after expired leases before it fails the batch (a job cannot
	// ping-pong forever between dying workers). Zero selects 3.
	MaxLeaseExpiries int
	// LeaseBatch is the maximum number of jobs granted per lease (and
	// therefore the depth of each worker slot's local queue, sustained by
	// result-reply refills). Zero or one grants single jobs, the
	// pre-batching protocol. Grants shrink adaptively near queue
	// exhaustion — at most ceil(pending / live workers) — so the tail of a
	// sweep rebalances across the fleet instead of piling onto one
	// straggler.
	LeaseBatch int
	// Secret, when non-empty, is the shared secret every client must
	// present (compared in constant time): wire connections carry its
	// SHA-256 digest in their HELLO frame, HTTP requests (/dist/status,
	// /dist/submit) carry it in the X-Bashsim-Secret header. Mismatches
	// are rejected before they touch the queue.
	Secret string
	// CoExecute, when positive, runs that many in-process worker slots for
	// the duration of every Run: the coordinator leases jobs to itself over
	// an in-memory wire connection (auth included) whenever it has idle
	// cores, so a lone coordinator still makes progress with no external
	// workers at all. The process must have the jobs' executors registered
	// (e.g. experiments.RegisterCellExecutor), exactly like a worker
	// process; kinds with no registered executor are never leased to the
	// in-process worker.
	CoExecute int
	// CacheDir, when non-empty, opens the coordinator's own cell store
	// there. Fetches are served from it before any relay is attempted, and
	// relayed entries are written through to it, so one warm coordinator
	// can feed an arbitrarily cold fleet. Empty disables the local store;
	// fetches then rely entirely on advertised holders.
	CacheDir string
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return defaultLeaseTTL
}

func (o CoordinatorOptions) maxExpiries() int {
	if o.MaxLeaseExpiries > 0 {
		return o.MaxLeaseExpiries
	}
	return defaultMaxLeaseExpiries
}

func (o CoordinatorOptions) leaseBatch() int {
	if o.LeaseBatch < 1 {
		return 1
	}
	return o.LeaseBatch
}

// jobState is the lifecycle of one tracked job.
type jobState int

const (
	jobPending jobState = iota // queued, waiting for a lease
	jobLeased                  // held by a worker, deadline armed
	jobDone                    // result or terminal failure recorded
)

// trackedJob is one job of a batch in flight.
type trackedJob struct {
	id       int64
	index    int    // index into the batch's job list
	b        *batch // owning batch (concurrent Runs interleave in one queue)
	job      runner.Job
	state    jobState
	worker   string    // current (or last) lease holder
	deadline time.Time // lease expiry when leased
	expiries int       // expired-lease count
}

// batch is one Backend.Run invocation in flight.
type batch struct {
	jobs      []*trackedJob
	results   [][]byte
	errs      []error
	completed int
	priority  int // grant order: higher drains first, ties FIFO by job id
	progress  func(done, total int)
	done      chan struct{} // closed once the last completion is reported
	closed    bool          // abandoned (canceled); late results are dropped

	// progressMu serializes notifyProgress; lastReported keeps the
	// reported count strictly increasing when notifications race.
	progressMu   sync.Mutex
	lastReported int
}

// notifyProgress fires the batch's progress callback and, for the last
// completion, releases Run — after the callback, so no callback runs once
// Run has returned. It must be called WITHOUT holding the coordinator
// mutex: the callback is user code and may call back into the Coordinator
// (the CLI's progress line asks Workers()). Counts that lost the race to a
// later completion are dropped, so done is strictly increasing as
// Options.Progress promises.
func (b *batch) notifyProgress(done int) {
	if b == nil || done == 0 {
		return
	}
	if b.progress != nil {
		b.progressMu.Lock()
		if done > b.lastReported {
			b.lastReported = done
			b.progress(done, len(b.jobs))
		}
		b.progressMu.Unlock()
	}
	if done == len(b.jobs) {
		close(b.done)
	}
}

// Coordinator owns the job queue and lease table and serves the wire
// protocol. It implements runner.Backend: Run enqueues a batch and blocks
// until workers drain it (or the context cancels). Concurrent Run calls
// interleave their jobs in one shared queue — ordered by batch priority,
// then FIFO — so a long-lived sweep service can schedule several sweeps
// across one worker fleet at once.
type Coordinator struct {
	opt     CoordinatorOptions
	handler http.Handler // built once, shared by every server it is mounted on
	exch    *exchange    // peer cell exchange: indicator table + fetch routing

	mu       sync.Mutex
	nextID   int64
	queue    []*trackedJob         // pending jobs, sorted by (priority desc, id asc)
	pending  int                   // jobPending entries in queue (O(1) grant sizing)
	leased   map[int64]*trackedJob // in-flight jobs by id
	batches  map[*batch]struct{}   // batches in flight, one per active Run
	workers  map[string]time.Time  // worker name -> last contact
	draining bool                  // Drain called: grant nothing, let leases finish

	// peerAddrs maps workers to their advertised peer listener addresses
	// (only workers serving peers appear). Guarded by mu.
	peerAddrs map[string]string

	// submitMu guards the sweep-submission hook, installed by the service
	// layer (internal/svc). Nil rejects submissions in-band: a plain
	// one-shot coordinator is not a sweep service.
	submitMu sync.Mutex
	submit   func(SubmitRequest) SubmitResponse

	// coMu guards the refcounted co-execution worker: concurrent Runs share one
	// in-process worker rather than stacking CoExecute slots per sweep.
	coMu     sync.Mutex
	coRuns   int
	coCancel context.CancelFunc

	// wireMu guards the live wire connections (per-connection counters
	// surface in /dist/status) plus a bounded history of closed ones; frame
	// totals also count closed connections.
	wireMu      sync.Mutex
	wireConns   map[*wireConn]struct{}
	closedConns []closedWireConn

	// grantSize, when set by RegisterMetrics, observes the size of every
	// non-empty grant (atomic pointer: metrics wiring must not add a lock to
	// the lease path).
	grantSize atomic.Pointer[obs.Histogram]

	leases, refills, dispatched, completed, failed, reassigned atomic.Uint64
	bytesIn, bytesOut                                          atomic.Uint64 // socket-level, via Serve
	framesIn, framesOut                                        atomic.Uint64 // wire frames, all connections
}

// NewCoordinator returns an idle coordinator.
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	c := &Coordinator{
		opt:       opt,
		exch:      newExchange(opt.CacheDir),
		leased:    map[int64]*trackedJob{},
		batches:   map[*batch]struct{}{},
		workers:   map[string]time.Time{},
		peerAddrs: map[string]string{},
		wireConns: map[*wireConn]struct{}{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /dist/submit", c.handleSubmit)
	mux.HandleFunc("GET /dist/status", c.handleStatus)
	// The wire upgrade endpoint mounts outside the shared-secret
	// middleware: its authentication is in-band (the HELLO frame carries
	// the secret digest, checked in constant time before any protocol state
	// is touched), and hijacked connections cannot use HTTP status codes
	// anyway.
	outer := http.NewServeMux()
	outer.HandleFunc("POST /dist/wire", c.handleWire)
	outer.Handle("/", c.authenticate(mux))
	c.handler = outer
	return c
}

// Handler returns the HTTP handler serving the job protocol: the wire
// upgrade at POST /dist/wire, plus GET /dist/status and POST /dist/submit.
// Mount it on any server (the bashsim CLI serves it via Serve, tests use
// httptest). When Options.Secret is set, the status and submit requests
// must carry it in the X-Bashsim-Secret header or are rejected with 401;
// the wire upgrade instead authenticates in-band via its HELLO frame.
// Mounting on a server that does not go through Serve works, but leaves
// the socket-level byte counters at zero.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// Serve accepts connections on l and serves the protocol until l closes.
// Every connection is wrapped in a byte counter feeding
// Stats.BytesIn/BytesOut, so upgrade headers, wire frames, and status
// requests are measured at the same place: the socket.
func (c *Coordinator) Serve(l net.Listener) error {
	return c.ServeHandler(l, c.handler)
}

// ServeHandler is Serve with a caller-supplied HTTP handler: the sweep
// service (internal/svc) mounts the protocol under /dist/ next to its own
// routes — /sweeps, /metrics, the status page — while connections still flow
// through the socket-level byte counters. h must delegate /dist/ paths to
// Handler() or workers cannot reach the protocol.
func (c *Coordinator) ServeHandler(l net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h}
	return srv.Serve(countingListener{Listener: l, c: c})
}

// countingListener wraps accepted connections in socket-level byte
// counters. Hijacked (wire) connections keep the wrapper, so the counters
// see their frames too.
type countingListener struct {
	net.Listener
	c *Coordinator
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *Coordinator
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.bytesIn.Add(uint64(n))
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.bytesOut.Add(uint64(n))
	return n, err
}

// authenticate wraps the protocol mux in the shared-secret check. Secrets
// are compared in constant time over their SHA-256 digests, so neither
// length nor prefix of the configured secret leaks through timing.
func (c *Coordinator) authenticate(next http.Handler) http.Handler {
	if c.opt.Secret == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := sha256.Sum256([]byte(r.Header.Get(secretHeader)))
		if !secretDigestOK(c.opt.Secret, got[:]) {
			http.Error(w, "unauthorized: bad or missing "+secretHeader+" header (shared secret mismatch)",
				http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Stats returns lifetime dispatch and transport counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Leases:     c.leases.Load(),
		Refills:    c.refills.Load(),
		Dispatched: c.dispatched.Load(),
		Completed:  c.completed.Load(),
		Failed:     c.failed.Load(),
		Reassigned: c.reassigned.Load(),
		BytesIn:    c.bytesIn.Load(),
		BytesOut:   c.bytesOut.Load(),
		FramesIn:   c.framesIn.Load(),
		FramesOut:  c.framesOut.Load(),

		Adverts:       c.exch.adverts.Load(),
		AdvertBytes:   c.exch.advertBytes.Load(),
		Fetches:       c.exch.fetches.Load(),
		FetchServed:   c.exch.served.Load(),
		FetchRelayed:  c.exch.relayed.Load(),
		FetchFalsePos: c.exch.fetchMissing.Load(),

		FetchDirect:   c.exch.direct.Load(),
		FetchFallback: c.exch.fallback.Load(),
	}
}

// Workers counts workers heard from within the liveness window.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	window := workerTTLFactor * c.opt.leaseTTL()
	n := 0
	for name, last := range c.workers {
		if now.Sub(last) <= window {
			n++
		} else {
			delete(c.workers, name)
			delete(c.peerAddrs, name)
		}
	}
	return n
}

// registerWorkerLocked records a worker contact: liveness timestamp and
// (when the contact carried one) its peer listener address.
// peer == "" leaves any previously registered address alone — heartbeats
// and results don't re-send it.
func (c *Coordinator) registerWorkerLocked(name, peer string, now time.Time) {
	c.workers[name] = now
	if peer != "" {
		c.peerAddrs[name] = peer
	}
}

// Run implements runner.Backend: it enqueues the jobs, waits for workers to
// drain them, and folds results in job-index order. Error semantics mirror
// runner.Map: the lowest-indexed failed job wins, worker panics surface as
// *runner.PanicError with the job's label and remote stack, and on
// cancellation the partial results are still returned. With
// Options.CoExecute > 0, worker slots run in-process for the duration of
// the call, so the batch drains even with no external workers.
// Concurrent Runs are safe: each gets its own batch, their jobs interleave
// in the shared queue, and the fleet drains them together.
func (c *Coordinator) Run(jobs []runner.Job, opt runner.Options) ([][]byte, error) {
	return c.RunPriority(jobs, opt, 0)
}

// RunPriority is Run with an explicit batch priority: pending jobs from a
// higher-priority batch are always granted before lower ones; equal
// priorities drain FIFO. Leases already held are never preempted.
func (c *Coordinator) RunPriority(jobs []runner.Job, opt runner.Options, priority int) ([][]byte, error) {
	b := &batch{
		jobs:     make([]*trackedJob, len(jobs)),
		results:  make([][]byte, len(jobs)),
		errs:     make([]error, len(jobs)),
		priority: priority,
		progress: opt.Progress,
		done:     make(chan struct{}),
	}
	if len(jobs) == 0 {
		return b.results, nil
	}
	ctx, cancel := opt.RunContext()
	defer cancel()

	c.mu.Lock()
	for i, j := range jobs {
		c.nextID++
		tj := &trackedJob{id: c.nextID, index: i, b: b, job: j}
		b.jobs[i] = tj
		c.enqueueLocked(tj)
	}
	c.batches[b] = struct{}{}
	c.mu.Unlock()

	stopCoExec := c.acquireCoExecution()
	defer stopCoExec()

	// Expired leases are also reclaimed lazily on every lease request, but
	// if every worker died there are no more requests — the ticker
	// guarantees reassignment bookkeeping (and terminal failure once a
	// job's expiry budget is spent) still happens.
	ticker := time.NewTicker(c.opt.leaseTTL() / 2)
	defer ticker.Stop()
	var canceled error
wait:
	for {
		select {
		case <-b.done:
			break wait
		case <-ctx.Done():
			canceled = ctx.Err()
			c.abandon(b)
			break wait
		case <-ticker.C:
			c.mu.Lock()
			notes := c.reclaimExpiredLocked(time.Now())
			c.mu.Unlock()
			notes.notify()
		}
	}

	c.mu.Lock()
	delete(c.batches, b)
	c.mu.Unlock()

	label := func(i int) string {
		if opt.Label != nil {
			return opt.Label(i)
		}
		return jobs[i].Label
	}
	for i, err := range b.errs {
		if err == nil {
			continue
		}
		if pe, ok := err.(*runner.PanicError); ok {
			return b.results, pe
		}
		return b.results, fmt.Errorf("dist: %s: %w", label(i), err)
	}
	if canceled != nil {
		return b.results, canceled
	}
	return b.results, nil
}

// acquireCoExecution refcounts the in-process worker (a no-op closure when
// CoExecute is 0 or no executors are registered): the first active Run
// starts it, the last one's release cancels it, and concurrent Runs in
// between share it — a sweep service with N queued sweeps runs CoExecute
// slots total, not N stacks of them. The worker speaks the full wire
// protocol over an in-memory pipe into the same frame dispatcher remote
// workers reach through /dist/wire — auth, batched leases, heartbeats,
// streamed results — so every hardening test that covers external workers
// covers it too.
func (c *Coordinator) acquireCoExecution() (release func()) {
	if c.opt.CoExecute <= 0 || len(runner.Kinds()) == 0 {
		return func() {}
	}
	c.coMu.Lock()
	c.coRuns++
	if c.coRuns == 1 {
		coCtx, cancel := context.WithCancel(context.Background())
		c.coCancel = cancel
		go func() {
			// Errors other than cancellation (e.g. a future kindless start)
			// only disable co-execution; external workers still drain the run.
			runWorker(coCtx, WorkerOptions{
				Coordinator: "in-process",
				Name:        "coordinator",
				Slots:       c.opt.CoExecute,
				Secret:      c.opt.Secret,
				Poll:        50 * time.Millisecond,
			}, c.pipeConnect)
		}()
	}
	c.coMu.Unlock()
	// Cancel without joining: executors are synchronous simulations, so a
	// slot mid-job cannot be interrupted — waiting for it would hold a
	// canceled (or even a completed) Run hostage for up to one full cell.
	// Canceled slots stop heartbeating at once (their leases expire and
	// reassign), finish the cell they are on, post nothing, and exit; a
	// straggler's late duplicate is dropped like any other. Once every slot
	// has exited the worker closes its transport, and with it both pipe
	// ends.
	return func() {
		c.coMu.Lock()
		c.coRuns--
		if c.coRuns == 0 {
			c.coCancel()
			c.coCancel = nil
		}
		c.coMu.Unlock()
	}
}

// Drain puts the coordinator in drain mode and waits for every leased job
// to complete or expire: no new jobs are granted (leases and refills return
// empty), results and heartbeats are still accepted, and expired leases are
// reclaimed back into a queue nobody is granted from. Pending jobs stay queued —
// their Runs only return when the service layer cancels them — so nothing
// is lost or double-counted across a SIGTERM teardown. Returns ctx.Err if
// the deadline passes with leases still outstanding.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	for {
		c.mu.Lock()
		notes := c.reclaimExpiredLocked(time.Now())
		outstanding := len(c.leased)
		c.mu.Unlock()
		notes.notify()
		if outstanding == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Draining reports whether Drain has been called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// abandon drops a canceled batch: pending jobs leave the queue, leased jobs
// are forgotten (a late result is ignored), and the batch stops accepting
// completions.
func (c *Coordinator) abandon(b *batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b.closed = true
	var keep []*trackedJob
	for _, tj := range c.queue {
		if tj.state == jobPending && tj.b == b {
			tj.state = jobDone
			c.pending--
			continue
		}
		keep = append(keep, tj)
	}
	c.queue = keep
	for id, tj := range c.leased {
		if tj.b == b {
			tj.state = jobDone
			delete(c.leased, id)
		}
	}
}

// enqueueLocked inserts tj into the pending queue, keeping it sorted by
// (batch priority desc, job id asc). Same-priority batches therefore drain
// FIFO exactly as before; an expired lease's requeue reinserts by its
// original id, so retries go ahead of its batch's untouched tail.
func (c *Coordinator) enqueueLocked(tj *trackedJob) {
	i := len(c.queue)
	for i > 0 {
		prev := c.queue[i-1]
		if prev.b.priority > tj.b.priority ||
			(prev.b.priority == tj.b.priority && prev.id < tj.id) {
			break
		}
		i--
	}
	c.queue = append(c.queue, nil)
	copy(c.queue[i+1:], c.queue[i:])
	c.queue[i] = tj
	c.pending++
}

// progressNotes carries per-batch completion counts out of the coordinator
// mutex: with several batches in flight one reclaim pass can finish jobs in
// more than one of them, and every notifyProgress must run unlocked.
type progressNotes []progressNote

type progressNote struct {
	b    *batch
	done int
}

func (ns progressNotes) notify() {
	for _, n := range ns {
		n.b.notifyProgress(n.done)
	}
}

// reclaimExpiredLocked requeues (or terminally fails) every leased job
// whose deadline passed. It returns the per-batch completion counts to
// report via notifyProgress once the coordinator mutex is released (empty
// when nothing terminal happened).
func (c *Coordinator) reclaimExpiredLocked(now time.Time) progressNotes {
	var notes progressNotes
	for id, tj := range c.leased {
		if now.Before(tj.deadline) {
			continue
		}
		delete(c.leased, id)
		tj.expiries++
		if tj.expiries > c.opt.maxExpiries() {
			done := c.finishLocked(tj.b, tj, nil, fmt.Errorf(
				"lease expired %d times (last worker %q lost); giving up", tj.expiries, tj.worker))
			if done > 0 {
				notes = append(notes, progressNote{tj.b, done})
			}
			continue
		}
		c.reassigned.Add(1)
		tj.state = jobPending
		c.enqueueLocked(tj)
	}
	return notes
}

// finishLocked records a job's terminal result (value or error) and returns
// the new completion count for the caller to report via notifyProgress
// after releasing the coordinator mutex (zero when the job was already
// finished or the batch abandoned); reporting the last one releases Run.
func (c *Coordinator) finishLocked(b *batch, tj *trackedJob, result []byte, err error) int {
	if b.closed || tj.state == jobDone {
		return 0
	}
	tj.state = jobDone
	b.results[tj.index] = result
	b.errs[tj.index] = err
	if err == nil {
		c.completed.Add(1)
	} else {
		c.failed.Add(1)
	}
	b.completed++
	return b.completed
}

// grantLocked dequeues up to max pending jobs matching the worker's kinds
// and leases them to it, in queue order: (priority desc, id asc), so a
// higher-priority batch's jobs are always granted first (the RunPriority
// contract) and equal priorities drain FIFO. A worker advertising no kinds
// can execute nothing: grant it nothing rather than jobs it would
// terminally fail (one misconfigured worker must not abort a healthy
// fleet's batch).
func (c *Coordinator) grantLocked(now time.Time, worker string, kinds map[string]bool, max int) []*trackedJob {
	if c.draining {
		return nil // drain mode: let held leases finish, hand out nothing new
	}
	var grants []*trackedJob
	for qi := 0; qi < len(c.queue) && len(grants) < max; {
		tj := c.queue[qi]
		if tj.state != jobPending || !kinds[tj.job.Kind] {
			qi++
			continue
		}
		// In-place removal: shifting within the existing backing array
		// avoids reallocating and copying the whole queue on every grant.
		c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
		clearTail := c.queue[:len(c.queue)+1]
		clearTail[len(clearTail)-1] = nil // release the shifted-out tail slot
		tj.state = jobLeased
		tj.worker = worker
		tj.deadline = now.Add(c.opt.leaseTTL())
		c.leased[tj.id] = tj
		c.pending--
		grants = append(grants, tj)
	}
	c.dispatched.Add(uint64(len(grants)))
	return grants
}

// leaseSizeLocked is the adaptive grant bound for one lease: the configured
// LeaseBatch, capped by the worker's own request and — near queue
// exhaustion — by the pending jobs' fair share across live workers, so the
// last cells of a sweep spread over the fleet instead of queueing behind
// one straggler's batch.
func (c *Coordinator) leaseSizeLocked(now time.Time, reqMax int) int {
	max := c.opt.leaseBatch()
	if reqMax > 0 && reqMax < max {
		max = reqMax
	}
	live := c.liveWorkersLocked(now)
	if live < 1 {
		live = 1
	}
	if fair := (c.pending + live - 1) / live; fair < max {
		max = fair
	}
	if max < 1 {
		max = 1
	}
	return max
}

// progressLocked snapshots done/total summed across every batch in flight
// (zeros when idle), so worker logs and /dist/status show fleet-wide sweep
// progress even with several sweeps interleaved.
func (c *Coordinator) progressLocked() (done, total int) {
	for b := range c.batches {
		done += b.completed
		total += len(b.jobs)
	}
	return done, total
}

func kindSet(kinds []string) map[string]bool {
	set := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return set
}

func leasedJobs(grants []*trackedJob) []leasedJob {
	jobs := make([]leasedJob, len(grants))
	for i, tj := range grants {
		jobs[i] = leasedJob{
			JobID: tj.id,
			Kind:  tj.job.Kind,
			Key:   tj.job.Key,
			Label: tj.job.Label,
			Spec:  tj.job.Spec,
		}
	}
	return jobs
}

// leaseRPC answers one LEASE frame. An empty Jobs slice means "no work
// right now" (an empty GRANT on the wire).
func (c *Coordinator) leaseRPC(req leaseRequest) leaseResponse {
	kinds := kindSet(req.Kinds)
	now := time.Now()

	c.mu.Lock()
	c.registerWorkerLocked(req.Worker, req.Peer, now)
	notes := c.reclaimExpiredLocked(now)
	grants := c.grantLocked(now, req.Worker, kinds, c.leaseSizeLocked(now, req.Max))
	pdone, ptotal := c.progressLocked()
	c.mu.Unlock()
	notes.notify()

	resp := leaseResponse{Done: pdone, Total: ptotal}
	if len(grants) > 0 {
		c.leases.Add(1)
		c.observeGrant(len(grants))
		resp.Jobs = leasedJobs(grants)
		c.annotateHints(req.Worker, resp.Jobs)
		resp.LeaseMillis = c.opt.leaseTTL().Milliseconds()
	}
	return resp
}

// heartbeatRPC extends the worker's named leases (a HEARTBEAT frame).
func (c *Coordinator) heartbeatRPC(req heartbeatRequest) heartbeatResponse {
	now := time.Now()
	c.mu.Lock()
	c.registerWorkerLocked(req.Worker, "", now)
	for _, id := range req.JobIDs {
		if tj, ok := c.leased[id]; ok && tj.worker == req.Worker {
			tj.deadline = now.Add(c.opt.leaseTTL())
		}
	}
	resp := heartbeatResponse{Active: len(c.batches) > 0}
	resp.Done, resp.Total = c.progressLocked()
	c.mu.Unlock()
	return resp
}

// resultRPC records one job's outcome (a RESULT frame) and serves any
// requested refill.
func (c *Coordinator) resultRPC(req resultRequest) leaseResponse {
	// Fold the worker's fetch-path delta counters into the exchange totals
	// (direct fetches never touch the coordinator's socket, so this is the
	// only place it learns about them).
	c.exch.direct.Add(req.FetchDirect)
	c.exch.fallback.Add(req.FetchFallback)
	now := time.Now()
	c.mu.Lock()
	c.registerWorkerLocked(req.Worker, "", now)
	tj, ok := c.leased[req.JobID]
	if ok {
		delete(c.leased, req.JobID)
	}
	var b *batch
	done := 0
	if ok {
		b = tj.b
		switch {
		case req.Panic != "":
			// Mirror the in-process pool: a worker-side panic becomes a
			// *runner.PanicError carrying the job's label and the remote
			// stack, attributed to the job that raised it.
			done = c.finishLocked(b, tj, nil, &runner.PanicError{
				Index: tj.index,
				Label: tj.job.Label,
				Value: fmt.Sprintf("%s (on worker %q)", req.Panic, req.Worker),
				Stack: req.Stack,
			})
		case req.Error != "":
			done = c.finishLocked(b, tj, nil, fmt.Errorf("%s (on worker %q)", req.Error, req.Worker))
		default:
			done = c.finishLocked(b, tj, req.Result, nil)
		}
	}
	// Refill: the result post doubles as a lease request, so a saturated
	// worker streams results and receives replacement jobs on the same
	// round-trips, never revisiting the lease path until the queue drains.
	var grants []*trackedJob
	if req.Refill > 0 {
		// leaseSizeLocked caps at req.Refill (the reqMax bound), so the
		// grant never exceeds what the worker asked to absorb.
		grants = c.grantLocked(now, req.Worker, kindSet(req.Kinds), c.leaseSizeLocked(now, req.Refill))
	}
	pdone, ptotal := c.progressLocked()
	c.mu.Unlock()
	b.notifyProgress(done)
	// A result for an unknown job (lease expired and completed elsewhere,
	// or batch canceled) is acknowledged and dropped: results are
	// content-addressed, so duplicates are interchangeable.
	resp := leaseResponse{Done: pdone, Total: ptotal}
	if len(grants) > 0 {
		c.refills.Add(uint64(len(grants)))
		c.observeGrant(len(grants))
		resp.Jobs = leasedJobs(grants)
		c.annotateHints(req.Worker, resp.Jobs)
		resp.LeaseMillis = c.opt.leaseTTL().Milliseconds()
	}
	return resp
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.statusSnapshot())
}

// Snapshot returns the same aggregate the /dist/status endpoint serves —
// the in-process equivalent of FetchStatus for the service layer's status
// page and drain persistence.
func (c *Coordinator) Snapshot() StatusSnapshot { return c.statusSnapshot() }

func (c *Coordinator) statusSnapshot() StatusSnapshot {
	now := time.Now()
	st := c.Stats()
	c.mu.Lock()
	resp := StatusSnapshot{
		Workers:    c.liveWorkersLocked(now),
		Leases:     st.Leases,
		Refills:    st.Refills,
		Dispatched: st.Dispatched,
		Completed:  st.Completed,
		Failed:     st.Failed,
		Reassigned: st.Reassigned,
		BytesIn:    st.BytesIn,
		BytesOut:   st.BytesOut,
		FramesIn:   st.FramesIn,
		FramesOut:  st.FramesOut,

		Adverts:       st.Adverts,
		AdvertBytes:   st.AdvertBytes,
		Fetches:       st.Fetches,
		FetchServed:   st.FetchServed,
		FetchRelayed:  st.FetchRelayed,
		FetchFalsePos: st.FetchFalsePos,

		FetchDirect:   st.FetchDirect,
		FetchFallback: st.FetchFallback,
	}
	resp.Active = len(c.batches) > 0
	resp.Draining = c.draining
	resp.Done, resp.Total = c.progressLocked()
	c.mu.Unlock()
	c.wireMu.Lock()
	c.gcClosedConnsLocked(now)
	for wc := range c.wireConns {
		resp.WireConns = append(resp.WireConns, wc.status())
	}
	for _, cc := range c.closedConns {
		resp.WireConns = append(resp.WireConns, cc.st)
	}
	c.wireMu.Unlock()
	// Live connections sort first, then the closed history; within each
	// group, by worker and remote address.
	slices.SortFunc(resp.WireConns, func(a, b WireConnStatus) int {
		if a.Closed != b.Closed {
			if a.Closed {
				return 1
			}
			return -1
		}
		return strings.Compare(a.Worker+a.Remote, b.Worker+b.Remote)
	})
	return resp
}

// Closed-connection retention: /dist/status keeps a short history of dead
// wire connections (final counters, Closed=true) so a post-mortem can see
// what a departed worker moved — but bounded by count and age, so a
// week-long sweep service with churning workers never grows its status
// payload or status-page table without limit.
const (
	maxClosedConns      = 16
	closedConnRetention = 10 * time.Minute
)

// closedWireConn is one retained dead connection and when it closed.
type closedWireConn struct {
	st WireConnStatus
	at time.Time
}

// gcClosedConnsLocked drops retained closed connections past the age
// window (the count cap is enforced at insert). Caller holds wireMu.
func (c *Coordinator) gcClosedConnsLocked(now time.Time) {
	keep := c.closedConns[:0]
	for _, cc := range c.closedConns {
		if now.Sub(cc.at) <= closedConnRetention {
			keep = append(keep, cc)
		}
	}
	c.closedConns = keep
}

// retireWireConn moves a dying connection from the live table to the
// bounded closed history and drops the indicator it advertised.
func (c *Coordinator) retireWireConn(wc *wireConn) {
	c.exch.forget(wc.worker, wc)
	st := wc.status()
	st.Closed = true
	now := time.Now()
	c.wireMu.Lock()
	delete(c.wireConns, wc)
	c.closedConns = append(c.closedConns, closedWireConn{st: st, at: now})
	if n := len(c.closedConns) - maxClosedConns; n > 0 {
		c.closedConns = append(c.closedConns[:0], c.closedConns[n:]...)
	}
	c.gcClosedConnsLocked(now)
	c.wireMu.Unlock()
}

// observeGrant feeds the grant-size histogram when metrics are registered
// (one atomic load on the path otherwise).
func (c *Coordinator) observeGrant(n int) {
	if h := c.grantSize.Load(); h != nil {
		h.Observe(float64(n))
	}
}

// WriteStatus writes the coordinator's current /dist/status JSON — the
// exact bytes a GET would return — to w. The CLI uses it to persist the
// final status snapshot as a CI artifact without an extra HTTP round-trip.
func (c *Coordinator) WriteStatus(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.statusSnapshot())
}

// maxBody bounds request bodies: a submission is an experiment id, a
// scale, a priority, and at most a few thousand seeds.
const maxBody = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
