package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cellstore"
	"repro/internal/runner"
)

// WorkerOptions configures one worker process (or in-process worker loop).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8497".
	Coordinator string
	// Name identifies the worker in leases and logs; empty derives
	// "host:pid".
	Name string
	// Slots is the number of jobs executed concurrently (one pooled
	// simulation each). Zero or negative selects 1; sweep cells are
	// single-threaded, so one slot per core is the useful maximum.
	Slots int
	// Kinds restricts which job kinds this worker leases; nil advertises
	// every executor registered in this process (runner.Kinds).
	Kinds []string
	// Poll is the idle re-poll interval when the coordinator has no work.
	// Zero selects 500ms.
	Poll time.Duration
	// Log, when non-nil, receives one line per lifecycle event (lease,
	// completion, failure, fleet progress); nil is silent.
	Log func(format string, args ...any)
	// Secret is the shared secret whose SHA-256 digest opens every wire
	// connection (the HELLO frame). It must match the coordinator's; a
	// rejection is fatal (see AuthError) — retrying cannot fix wrong
	// credentials.
	Secret string
	// MaxBatch, when positive, caps how many jobs this worker accepts per
	// lease below the coordinator's LeaseBatch (bounded queue memory);
	// zero accepts the coordinator's default.
	MaxBatch int
	// Wire names the transport and must be "" or "binary": the binary
	// framed protocol over one persistent connection is the only one.
	// Anything else is rejected at start.
	Wire string
	// CacheDir, when non-empty, is this worker's cell store: fetched cells
	// are installed into it and, with PeerAddr, peers are served from it
	// and adverts cover its keys. Without PeerAddr the worker still
	// fetches — it just never advertises or serves.
	CacheDir string
	// AdvertBudget caps the advertisement stream at roughly this many
	// bytes per second: filters shrink (fewer bits per key, more false
	// positives) and refreshes stretch out to stay under it. Zero means
	// unpaced full-density adverts.
	AdvertBudget int
	// AdvertInterval is the base re-advertisement cadence (stretched by
	// AdvertBudget pacing, skipped entirely while the store is unchanged).
	// Zero selects 1s.
	AdvertInterval time.Duration
	// PeerAddr, when non-empty, starts a peer listener on this address
	// serving the worker's cell store directly to other workers (FETCH),
	// and the worker advertises its store to the coordinator. The address
	// rides the HELLO frame and grants hand it to requesters, so it must be
	// dialable by peers — "host:0" works only if the resolved host is
	// reachable from the rest of the fleet. Requires CacheDir (without a
	// store there is nothing to serve); empty means this worker's cells
	// are neither advertised nor served, so the fleet simulates them again.
	PeerAddr string
}

func (o WorkerOptions) name() string {
	if o.Name != "" {
		return o.Name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

func (o WorkerOptions) slots() int {
	if o.Slots < 1 {
		return 1
	}
	return o.Slots
}

func (o WorkerOptions) poll() time.Duration {
	if o.Poll > 0 {
		return o.Poll
	}
	return 500 * time.Millisecond
}

func (o WorkerOptions) kinds() []string {
	if o.Kinds != nil {
		return o.Kinds
	}
	return runner.Kinds()
}

func (o WorkerOptions) advertInterval() time.Duration {
	if o.AdvertInterval > 0 {
		return o.AdvertInterval
	}
	return time.Second
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// AuthError reports that the coordinator rejected this client's shared
// secret: a terminal ERROR frame flagged auth-failed on the wire, or an
// HTTP 401 from /dist/status. It is terminal: unlike a connection error,
// retrying with the same credentials can never succeed, so RunWorker
// returns it instead of degrading to idle polling.
type AuthError struct {
	Coordinator string
}

func (e *AuthError) Error() string {
	return fmt.Sprintf("dist: coordinator %s rejected this worker's credentials: shared secret mismatch — start the worker with the coordinator's -dist-secret", e.Coordinator)
}

// RunWorker leases and executes jobs until ctx is canceled, then returns
// ctx's error. Each slot loops independently: lease a batch of jobs,
// heartbeat every in-flight job at a third of the lease TTL, execute the
// batch in order, and stream each job's result back the moment it completes
// — the result reply refills the batch, so a saturated slot stays off the
// lease round-trip entirely. Connection errors — coordinator not up yet,
// restarting, partitioned — degrade to idle polling, so workers may be
// started before the coordinator and survive coordinator restarts. An
// auth rejection, by contrast, is fatal: RunWorker returns an *AuthError
// immediately (wrong credentials do not fix themselves).
//
// A worker killed mid-batch simply stops heartbeating: the coordinator
// reassigns the unfinished jobs of the batch when their leases expire —
// results already streamed back stay completed — and any cells the dead
// worker already published remain in the shared store, so nothing completed
// is ever re-simulated.
//
// A worker with nothing to advertise — no Kinds configured and no
// executors registered — refuses to start: the coordinator grants such a
// worker nothing, so it could only ever poll uselessly.
func RunWorker(ctx context.Context, o WorkerOptions) error {
	return runWorker(ctx, o, nil)
}

// runWorker is RunWorker over a given connect seam (nil dials
// o.Coordinator); co-execution passes its in-memory pipe.
func runWorker(ctx context.Context, o WorkerOptions, connect connectFunc) error {
	if len(o.kinds()) == 0 {
		return fmt.Errorf("dist: worker has no job kinds: register executors (e.g. experiments.RegisterCellExecutor) or set WorkerOptions.Kinds before starting")
	}
	store := cellstore.For(o.CacheDir)
	var peer *peerServer
	if o.PeerAddr != "" {
		if store == nil {
			return fmt.Errorf("dist: WorkerOptions.PeerAddr requires CacheDir: a peer listener with no cell store has nothing to serve")
		}
		var err error
		peer, err = startPeerServer(o.PeerAddr, o.Secret, store)
		if err != nil {
			return fmt.Errorf("dist: peer listener: %w", err)
		}
		defer peer.Close()
		// Advertise the resolved address (":0" resolves to the kernel's
		// pick) — it rides the HELLO frame.
		o.PeerAddr = peer.Addr()
		o.logf("worker %s: peer listener on %s", o.name(), o.PeerAddr)
	}
	tr, err := newTransport(o, connect)
	if err != nil {
		return err
	}
	defer tr.Close()
	w := &worker{
		opt: o, name: o.name(), tr: tr,
		hints: map[string]jobHint{},
	}
	slotCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Route the executors' cell misses through the fleet: held-hinted keys
	// are fetched before being simulated. Process-global like the executor
	// registry (one worker per process); deliberately not cleared on exit —
	// a canceled co-execution worker may outlive its Run by one cell, and a
	// stale fetcher failing closed beats a fresh one torn down mid-fetch.
	runner.SetKeyFetcher(w.fetchKey)
	if peer != nil {
		go w.advertise(slotCtx, store)
	}
	errs := make(chan error, o.slots())
	for i := 0; i < o.slots(); i++ {
		go func() { errs <- w.loop(slotCtx) }()
	}
	var fatal error
	for i := 0; i < o.slots(); i++ {
		if err := <-errs; err != nil && fatal == nil {
			fatal = err
			cancel() // one slot's fatal error (auth) stops the others
		}
	}
	if fatal != nil {
		return fatal
	}
	return ctx.Err()
}

type worker struct {
	opt  WorkerOptions
	name string
	tr   *binaryTransport

	// progressMu guards the last fleet progress seen across slots, so the
	// log shows each (done, total) step once no matter which slot's reply
	// carried it.
	progressMu          sync.Mutex
	lastDone, lastTotal int

	// hints maps leased job keys to the coordinator's likely-held verdict
	// and the holder peer addresses for the direct data path; fetchKey
	// consults it so cells nobody claims skip the fetch round-trip and
	// claimed ones try their holders peer-to-peer before the coordinator's
	// store. Entries are dropped as jobs complete.
	hintMu sync.Mutex
	hints  map[string]jobHint

	// Direct-path delta counters, drained onto the next result post (the
	// coordinator cannot see peer-to-peer traffic, so workers report it).
	fetchDirect, fetchFallback atomic.Uint64
}

// jobHint is the per-key slice of a grant that fetchKey needs.
type jobHint struct {
	held    bool
	holders []string // peer addresses, freshest first
}

// noteHints records the held hints and holder addresses carried on a grant.
func (w *worker) noteHints(jobs []leasedJob) {
	w.hintMu.Lock()
	for _, j := range jobs {
		w.hints[j.Key] = jobHint{held: j.Held, holders: j.Holders}
	}
	w.hintMu.Unlock()
}

// dropHint forgets a completed job's hint.
func (w *worker) dropHint(key string) {
	w.hintMu.Lock()
	delete(w.hints, key)
	w.hintMu.Unlock()
}

// fetchKey is the runner.SetKeyFetcher hook: fetch key's raw entry from
// the fleet, but only when the coordinator hinted someone likely holds it.
// The granted holders are tried directly first (cheapest path, no
// coordinator in the loop), then the coordinator's own store. Any failure
// — no hint, transport error, verification failure, not found — reports
// ok=false and the executor simulates locally; a direct fetch is verified
// against the key before use, so a confused or malicious peer costs a
// fallback, never a wrong result.
func (w *worker) fetchKey(key string) ([]byte, bool) {
	w.hintMu.Lock()
	hint := w.hints[key]
	w.hintMu.Unlock()
	if !hint.held {
		return nil, false
	}
	for _, addr := range hint.holders {
		raw, ok := peerFetch(context.Background(), addr, w.name, w.opt.Secret, key)
		if !ok || cellstore.VerifyRaw(key, raw) != nil {
			continue
		}
		w.fetchDirect.Add(1)
		return raw, true
	}
	// Bounded independently of any job context: a fetch is an optimization
	// with a cheap fallback, never worth a long stall.
	ctx, cancel := context.WithTimeout(context.Background(), peerOpTimeout)
	defer cancel()
	resp, err := w.tr.Fetch(ctx, key)
	if err != nil || !resp.Found {
		return nil, false
	}
	if len(hint.holders) > 0 {
		// Direct was attempted and lost; the coordinator's store saved the
		// simulation.
		w.fetchFallback.Add(1)
	}
	return resp.Raw, true
}

// advertRetryDelay is how soon a failed advertisement is retried — fast
// relative to the base cadence, because until the first advert lands the
// coordinator computes every held hint against a table missing this worker.
const advertRetryDelay = 100 * time.Millisecond

// advertise periodically rebuilds the store indicator and publishes it,
// bandwidth-adaptively: the filter's bits-per-key shrink until a full send
// fits the budget, an unchanged filter is not re-sent, and each send
// defers the next by at least sentBytes/budget seconds so the advert
// stream's long-run rate stays under AdvertBudget. Only a worker serving
// peers advertises: the coordinator hands requesters its peer address.
func (w *worker) advertise(ctx context.Context, store *cellstore.Store) {
	var last *cellFilter
	timer := time.NewTimer(0) // first advert immediately: a cold fleet wants hints early
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		delay := w.opt.advertInterval()
		f := storeFilter(store, w.opt.AdvertBudget)
		if last == nil || !f.equal(last) {
			if sent, err := w.tr.Advert(ctx, f); err == nil {
				last = f
				if d := time.Duration(advertDelayMillis(sent, w.opt.AdvertBudget)) * time.Millisecond; d > delay {
					delay = d
				}
			} else if delay > advertRetryDelay {
				// The coordinator is unreachable (e.g. it starts after its
				// workers, as fleets usually do): retry well under the base
				// cadence so the first grants still carry held hints.
				delay = advertRetryDelay
			}
		}
		timer.Reset(delay)
	}
}

// noteProgress logs sweep-wide progress carried on lease, heartbeat, and
// result replies, deduplicated across slots and strictly increasing.
func (w *worker) noteProgress(done, total int) {
	if total == 0 || w.opt.Log == nil {
		return
	}
	w.progressMu.Lock()
	defer w.progressMu.Unlock()
	if total == w.lastTotal && done <= w.lastDone {
		return
	}
	w.lastDone, w.lastTotal = done, total
	w.opt.logf("worker %s: sweep %d/%d cells done fleet-wide", w.name, done, total)
}

// resetProgress forgets the last sweep's counts once a slot goes idle, so
// the next sweep — which may have the same total — logs from its start
// instead of being swallowed by the strictly-increasing guard.
func (w *worker) resetProgress() {
	w.progressMu.Lock()
	w.lastDone, w.lastTotal = 0, 0
	w.progressMu.Unlock()
}

// loop is one slot: lease a batch, execute it (streaming results and
// refilling), repeat. It returns nil on cancellation and the error on a
// fatal condition (auth rejection).
func (w *worker) loop(ctx context.Context) error {
	for {
		lease, err := w.lease(ctx)
		if err != nil {
			var ae *AuthError
			if errors.As(err, &ae) {
				w.opt.logf("worker %s: %v", w.name, err)
				return err
			}
			if ctx.Err() != nil {
				return nil
			}
			w.opt.logf("worker %s: lease: %v (will retry)", w.name, err)
			lease = nil
		}
		if lease == nil || len(lease.Jobs) == 0 {
			// Idle: the sweep (if any) finished or has no work for us.
			// Forget its progress so the next sweep's lines are not
			// suppressed by the strictly-increasing guard when the totals
			// happen to match. Another slot mid-batch may re-log one line
			// after this; better one duplicate than a silent sweep.
			w.resetProgress()
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(w.opt.poll()):
			}
			continue
		}
		if err := w.executeBatch(ctx, lease); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return nil
		}
	}
}

// lease asks for a batch of jobs; (nil, nil) means no work available.
func (w *worker) lease(ctx context.Context) (*leaseResponse, error) {
	resp, err := w.tr.Lease(ctx, leaseRequest{Worker: w.name, Kinds: w.opt.kinds(), Max: w.opt.MaxBatch})
	if err != nil || resp == nil {
		return nil, err
	}
	w.noteProgress(resp.Done, resp.Total)
	return resp, nil
}

// inflight is the set of job IDs a slot currently holds leases for —
// executing or queued — shared with its heartbeat goroutine.
type inflight struct {
	mu  sync.Mutex
	ids []int64
}

func (f *inflight) add(jobs []leasedJob) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range jobs {
		f.ids = append(f.ids, j.JobID)
	}
}

func (f *inflight) remove(id int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, have := range f.ids {
		if have == id {
			f.ids = append(f.ids[:i], f.ids[i+1:]...)
			return
		}
	}
}

func (f *inflight) snapshot() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int64(nil), f.ids...)
}

// executeBatch runs one leased batch in order with heartbeats covering
// every held job, streaming each result back as it completes and appending
// any refill jobs the replies carry. It returns only fatal errors (auth).
func (w *worker) executeBatch(ctx context.Context, lease *leaseResponse) error {
	held := &inflight{}
	held.add(lease.Jobs)
	w.noteHints(lease.Jobs)
	queue := append([]leasedJob(nil), lease.Jobs...)

	// Heartbeat at a third of the TTL while the batch runs, so one missed
	// beat (GC pause, transient network loss) never costs a lease. Every
	// held job is covered, queued ones included: a slow cell in front of
	// them must not let their leases lapse.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go w.heartbeat(hbCtx, hbDone, held, lease.LeaseMillis)
	defer func() {
		stopHB()
		<-hbDone
	}()

	for len(queue) > 0 {
		job := queue[0]
		queue = queue[1:]
		w.opt.logf("worker %s: job %d (%s)", w.name, job.JobID, job.Label)
		res := w.runJob(job)
		if ctx.Err() != nil {
			// Killed mid-batch: do not post — the held leases will expire
			// and the unfinished jobs (this one included) will be
			// reassigned, exactly as if the process had died. Results
			// already posted stay completed.
			return nil
		}
		// Ask for one replacement job per completed job: the queue holds
		// its granted depth while work remains and drains naturally as the
		// coordinator runs out (near exhaustion it grants nothing, so tail
		// jobs spread across whoever finishes first).
		res.Kinds = w.opt.kinds()
		res.Refill = 1
		refill, err := w.postResult(ctx, job, res)
		held.remove(job.JobID)
		w.dropHint(job.Key)
		if err != nil {
			var ae *AuthError
			if errors.As(err, &ae) {
				w.opt.logf("worker %s: %v", w.name, err)
				return err
			}
			// Non-auth post failures were already logged (result lost);
			// keep draining the rest of the batch.
		}
		if refill != nil {
			w.noteProgress(refill.Done, refill.Total)
			if len(refill.Jobs) > 0 {
				held.add(refill.Jobs)
				w.noteHints(refill.Jobs)
				queue = append(queue, refill.Jobs...)
			}
		}
	}
	return nil
}

// heartbeat extends the slot's held leases at a third of the TTL until
// stopped, logging fleet progress carried on the replies.
func (w *worker) heartbeat(ctx context.Context, done chan<- struct{}, held *inflight, leaseMillis int64) {
	defer close(done)
	interval := time.Duration(leaseMillis) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			ids := held.snapshot()
			if len(ids) == 0 {
				continue
			}
			if hb, err := w.tr.Heartbeat(ctx, heartbeatRequest{Worker: w.name, JobIDs: ids}); err == nil && hb != nil {
				w.noteProgress(hb.Done, hb.Total)
			}
		}
	}
}

// postResult streams one job's outcome, retrying a few times (losing a
// finished result to one dropped packet would waste a whole simulation) and
// returning any refill grant carried on the reply. An auth rejection
// returns *AuthError immediately.
func (w *worker) postResult(ctx context.Context, job leasedJob, res resultRequest) (*leaseResponse, error) {
	// Drain the direct-path delta counters onto this post. Advisory
	// totals: a post lost after the coordinator applied it undercounts
	// (the deltas were already zeroed), but never double-counts.
	res.FetchDirect = w.fetchDirect.Swap(0)
	res.FetchFallback = w.fetchFallback.Swap(0)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Only the first attempt asks for a refill: a lost reply may
			// have carried a grant this worker never saw (that orphaned
			// job's lease expires and reassigns, like any lost lease
			// reply), and re-asking on every retry would orphan another
			// grant per attempt.
			res.Refill = 0
		}
		resp, err := w.tr.Result(ctx, res)
		if err == nil {
			return resp, nil
		}
		var ae *AuthError
		if errors.As(err, &ae) {
			return nil, ae
		}
		if attempt >= 2 || ctx.Err() != nil {
			w.opt.logf("worker %s: job %d result lost: %v", w.name, job.JobID, err)
			return nil, fmt.Errorf("result post failed: %w", err)
		}
		time.Sleep(w.opt.poll())
	}
}

// runJob executes the job's registered executor, capturing panics into the
// result message (they surface coordinator-side as *runner.PanicError).
func (w *worker) runJob(job leasedJob) (res resultRequest) {
	res = resultRequest{Worker: w.name, JobID: job.JobID}
	end := runner.JobBegin()
	defer func() {
		end()
		if r := recover(); r != nil {
			runner.NotePanic()
			res.Panic = fmt.Sprint(r)
			res.Stack = debug.Stack()
		}
	}()
	fn := runner.ExecutorFor(job.Kind)
	if fn == nil {
		res.Error = fmt.Sprintf("no executor registered for job kind %q", job.Kind)
		return res
	}
	out, err := fn(job.Spec)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Result = out
	return res
}

// FetchStatus fetches a coordinator's full /dist/status snapshot — progress,
// lifetime counters, wire connections. secret must match the coordinator's
// -dist-secret; pass "" for an unauthenticated coordinator.
func FetchStatus(ctx context.Context, client *http.Client, coordinator, secret string) (StatusSnapshot, error) {
	var st StatusSnapshot
	if ctx == nil {
		ctx = context.Background()
	}
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, coordinator+"/dist/status", nil)
	if err != nil {
		return st, err
	}
	if secret != "" {
		req.Header.Set(secretHeader, secret)
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return st, &AuthError{Coordinator: coordinator}
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

// Status fetches a coordinator's progress snapshot (the CLI's aggregated
// progress line and the smoke tests use it). secret must match the
// coordinator's -dist-secret; pass "" for an unauthenticated coordinator.
func Status(ctx context.Context, client *http.Client, coordinator, secret string) (done, total, workers int, active bool, err error) {
	st, err := FetchStatus(ctx, client, coordinator, secret)
	if err != nil {
		return 0, 0, 0, false, err
	}
	return st.Done, st.Total, st.Workers, st.Active, nil
}
