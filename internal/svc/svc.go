// Package svc is the long-lived sweep service: a dist.Coordinator that
// stays up across sweeps, accepts named submissions (a JSON POST
// /dist/submit, which bashsim -submit sends), schedules a FIFO+priority
// queue of sweeps across one shared worker fleet, and serves live
// observability — per-sweep progress and TSV retrieval under /sweeps, a
// Prometheus scrape at /metrics, and a no-JS HTML status page at /.
//
// One Service owns one Coordinator. Each active sweep is one
// Coordinator.RunPriority loop; their jobs interleave in the coordinator's
// shared queue (ordered by sweep priority, then FIFO), so the fleet drains
// every active sweep at once and workers need no notion of "sweep" at all —
// jobs are already self-describing. Drain stops the scheduler and the
// coordinator's grants, lets leased batches finish or expire, cancels
// whatever is left, and leaves a final status snapshot for persistence.
package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/cellstore"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Options configures a sweep service.
type Options struct {
	// Coordinator tunes the embedded dist.Coordinator (lease TTL, batching,
	// shared secret, co-execution, wire selection, cache directory).
	Coordinator dist.CoordinatorOptions
	// Experiments is the base options every sweep runs with — cache
	// directory, parallelism, watchdog, and the default Scale for
	// submissions that leave theirs empty. Scale, Backend, Context, and
	// Progress are overridden per sweep.
	Experiments experiments.Options
	// MaxActive bounds concurrently running sweeps (each is one coordinator
	// run loop; their jobs share the fleet). Zero selects 2.
	MaxActive int
	// Registry receives the service's metrics; nil creates a fresh one.
	// The /metrics endpoint serves whatever registry ends up here.
	Registry *obs.Registry
	// Log, when non-nil, receives one line per sweep lifecycle event.
	Log func(format string, args ...any)
}

func (o Options) maxActive() int {
	if o.MaxActive > 0 {
		return o.MaxActive
	}
	return 2
}

// SweepState is the lifecycle of one submitted sweep.
type SweepState string

// Sweep states. Queued sweeps wait for a scheduler slot; Canceled covers
// both drain-time cancellation and a sweep cut short mid-run.
const (
	Queued   SweepState = "queued"
	Running  SweepState = "running"
	Done     SweepState = "done"
	Failed   SweepState = "failed"
	Canceled SweepState = "canceled"
)

// SweepStatus is one sweep's externally visible state, served as JSON by
// GET /sweeps and GET /sweeps/{id} and persisted on drain.
type SweepStatus struct {
	ID       string     `json:"id"`
	Exp      string     `json:"exp"`
	Scale    string     `json:"scale"`
	Priority int        `json:"priority,omitempty"`
	Seeds    []uint64   `json:"seeds,omitempty"`
	State    SweepState `json:"state"`
	// Done/Total count simulation cells across the sweep's figures so far
	// (Total grows as each figure's sweep starts; a queued sweep reports
	// 0/0).
	Done      int       `json:"done"`
	Total     int       `json:"total"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	Err       string    `json:"err,omitempty"`
}

// sweep is the service-internal sweep record; all fields are guarded by
// Service.mu.
type sweep struct {
	id        string
	exp       string
	scale     experiments.Scale
	scaleName string
	priority  int
	seeds     []uint64 // per-sweep seed override; nil takes scale defaults
	state     SweepState
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    []byte // concatenated artifact TSV, exactly the CLI's bytes
	errText   string
	cancel    context.CancelFunc

	// Cell progress accumulates across the experiment's sweeps: runner
	// progress callbacks count (done, total) within one sweep, so a new
	// sweep (done at or below the last report with a changed shape) banks
	// the previous one into the base.
	baseDone, baseTotal int
	lastDone, lastTotal int
}

func (sw *sweep) status() SweepStatus {
	return SweepStatus{
		ID:        sw.id,
		Exp:       sw.exp,
		Scale:     sw.scaleName,
		Priority:  sw.priority,
		Seeds:     sw.seeds,
		State:     sw.state,
		Done:      sw.baseDone + sw.lastDone,
		Total:     sw.baseTotal + sw.lastTotal,
		Submitted: sw.submitted,
		Started:   sw.started,
		Finished:  sw.finished,
		Err:       sw.errText,
	}
}

// Service is a running sweep service. Create with New, serve with Serve,
// tear down with Drain.
type Service struct {
	opt     Options
	coord   *dist.Coordinator
	reg     *obs.Registry
	mux     *http.ServeMux
	started time.Time

	mu       sync.Mutex
	sweeps   []*sweep // submission order
	byID     map[string]*sweep
	nextID   int
	active   int
	draining bool
	wg       sync.WaitGroup // one per running sweep goroutine
}

// New builds a sweep service: coordinator, metrics registry (coordinator,
// cellstore, runner, and experiments seams all registered), submission
// hook, and HTTP routes. With Coordinator.CoExecute > 0 the process's cell
// executor is registered so a lone service still makes progress.
func New(opt Options) *Service {
	s := &Service{
		opt:     opt,
		coord:   dist.NewCoordinator(opt.Coordinator),
		reg:     opt.Registry,
		byID:    map[string]*sweep{},
		started: time.Now(),
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if opt.Coordinator.CoExecute > 0 {
		experiments.RegisterCellExecutor(experiments.Options{
			CacheDir: opt.Experiments.CacheDir,
			NoReuse:  opt.Experiments.NoReuse,
		})
	}
	s.coord.RegisterMetrics(s.reg)
	s.registerMetrics()
	s.coord.HandleSubmit(s.submit)

	mux := http.NewServeMux()
	mux.Handle("/dist/", s.coord.Handler())
	mux.HandleFunc("GET /sweeps", s.handleSweeps)
	mux.HandleFunc("GET /sweeps/{id}", s.handleSweep)
	mux.HandleFunc("GET /sweeps/{id}/result.tsv", s.handleResult)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /{$}", s.handlePage)
	s.mux = mux
	return s
}

// Coordinator returns the embedded coordinator (tests reach its Stats and
// Snapshot through here).
func (s *Service) Coordinator() *dist.Coordinator { return s.coord }

// Registry returns the metrics registry serving /metrics.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Handler returns the service's full HTTP handler: the job protocol under
// /dist/ (shared-secret auth applies there as configured), read-only sweep
// and metrics endpoints, and the status page. Mount via Serve so the
// socket byte counters and the wire upgrade work.
func (s *Service) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until it closes, serving the wire
// upgrade, /dist/status and /dist/submit, and the service's own routes.
func (s *Service) Serve(l net.Listener) error {
	return s.coord.ServeHandler(l, s.mux)
}

// registerMetrics wires the cross-package counter seams and the per-sweep
// progress gauges into the registry. Everything is read-through: scrapes
// load the same atomics the status endpoints report.
func (s *Service) registerMetrics() {
	r := s.reg
	r.GaugeFunc("bashsim_jobs_in_flight", "pool jobs executing right now (all consumers)", func() float64 {
		return float64(runner.InFlight())
	})
	r.CounterFunc("bashsim_runner_panics_total", "jobs that panicked and were captured", runner.Panics)
	r.CounterFunc("bashsim_cells_simulated_total", "simulation cells actually executed", experiments.Simulations)
	r.CounterFunc("bashsim_cells_fetched_total", "cells installed via the peer cell exchange", experiments.Fetched)
	r.CounterFunc("bashsim_cells_memo_hits_total", "cells served from the in-process memo", experiments.MemoHits)

	// The cell store opens lazily (first sweep), so each scrape re-resolves
	// it; before that the counters read zero.
	dir := s.opt.Experiments.CacheDir
	store := func() *cellstore.Store { return cellstore.For(dir) }
	r.CounterFunc("bashsim_cellstore_hits_total", "persistent cell store hits", func() uint64 {
		if st := store(); st != nil {
			h, _, _ := st.Counters()
			return h
		}
		return 0
	})
	r.CounterFunc("bashsim_cellstore_misses_total", "persistent cell store misses", func() uint64 {
		if st := store(); st != nil {
			_, m, _ := st.Counters()
			return m
		}
		return 0
	})
	r.CounterFunc("bashsim_cellstore_writes_total", "persistent cell store writes", func() uint64 {
		if st := store(); st != nil {
			_, _, w := st.Counters()
			return w
		}
		return 0
	})
	r.CounterFunc("bashsim_cellstore_evictions_total", "cell store entries evicted (defective reads + GC)", func() uint64 {
		if st := store(); st != nil {
			return st.Evictions()
		}
		return 0
	})

	r.Collect("bashsim_sweeps", "sweeps by lifecycle state", "gauge",
		func(emit func(v float64, labels ...obs.Label)) {
			counts := map[SweepState]int{}
			s.mu.Lock()
			for _, sw := range s.sweeps {
				counts[sw.state]++
			}
			s.mu.Unlock()
			for _, st := range []SweepState{Queued, Running, Done, Failed, Canceled} {
				emit(float64(counts[st]), obs.Label{Name: "state", Value: string(st)})
			}
		})
	r.Collect("bashsim_sweep_done", "cells completed per sweep", "gauge",
		func(emit func(v float64, labels ...obs.Label)) {
			for _, st := range s.SweepStatuses() {
				emit(float64(st.Done),
					obs.Label{Name: "id", Value: st.ID}, obs.Label{Name: "exp", Value: st.Exp})
			}
		})
	r.Collect("bashsim_sweep_total", "cells planned per sweep (grows per figure)", "gauge",
		func(emit func(v float64, labels ...obs.Label)) {
			for _, st := range s.SweepStatuses() {
				emit(float64(st.Total),
					obs.Label{Name: "id", Value: st.ID}, obs.Label{Name: "exp", Value: st.Exp})
			}
		})
}

// SweepStatuses snapshots every sweep in submission order.
func (s *Service) SweepStatuses() []SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SweepStatus, len(s.sweeps))
	for i, sw := range s.sweeps {
		out[i] = sw.status()
	}
	return out
}

// parseScale maps a submission's scale name onto experiments.Scale; the
// empty name takes the service default.
func (s *Service) parseScale(name string) (experiments.Scale, string, error) {
	switch name {
	case "":
		def := s.opt.Experiments.Scale
		if def == experiments.Full {
			return experiments.Full, "full", nil
		}
		return experiments.Quick, "quick", nil
	case "quick":
		return experiments.Quick, "quick", nil
	case "full":
		return experiments.Full, "full", nil
	}
	return 0, "", fmt.Errorf("unknown scale %q (want quick or full)", name)
}

// submit is the coordinator's submission hook: validate, queue, schedule.
// Rejections travel in-band (SubmitResponse.Err) in the POST /dist/submit
// reply.
func (s *Service) submit(req dist.SubmitRequest) dist.SubmitResponse {
	if req.Exp == "" {
		return dist.SubmitResponse{Err: "missing experiment id (see bashsim -list)"}
	}
	if req.Exp != "all" && !slices.Contains(experiments.IDs(), req.Exp) {
		return dist.SubmitResponse{Err: fmt.Sprintf("unknown experiment %q (have %v)", req.Exp, experiments.IDs())}
	}
	scale, scaleName, err := s.parseScale(req.Scale)
	if err != nil {
		return dist.SubmitResponse{Err: err.Error()}
	}
	if len(req.Seeds) > 0 {
		if err := experiments.ValidateSeeds(req.Seeds); err != nil {
			return dist.SubmitResponse{Err: err.Error()}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return dist.SubmitResponse{Err: "service is draining"}
	}
	s.nextID++
	sw := &sweep{
		id:        fmt.Sprintf("s%03d", s.nextID),
		exp:       req.Exp,
		scale:     scale,
		scaleName: scaleName,
		priority:  req.Priority,
		seeds:     slices.Clone(req.Seeds),
		state:     Queued,
		submitted: time.Now(),
	}
	s.sweeps = append(s.sweeps, sw)
	s.byID[sw.id] = sw
	pos := 0
	for _, other := range s.sweeps {
		if other.state == Queued {
			pos++
		}
	}
	s.logf("svc: queued sweep %s: %s -scale %s (priority %d, position %d)",
		sw.id, sw.exp, sw.scaleName, sw.priority, pos)
	s.scheduleLocked()
	return dist.SubmitResponse{ID: sw.id, Position: pos}
}

// scheduleLocked starts queued sweeps while slots are free: highest
// priority first, FIFO within a priority. Caller holds s.mu.
func (s *Service) scheduleLocked() {
	for !s.draining && s.active < s.opt.maxActive() {
		var next *sweep
		for _, sw := range s.sweeps { // submission order breaks priority ties
			if sw.state == Queued && (next == nil || sw.priority > next.priority) {
				next = sw
			}
		}
		if next == nil {
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		next.state = Running
		next.started = time.Now()
		next.cancel = cancel
		s.active++
		s.wg.Add(1)
		go s.runSweep(next, ctx)
	}
}

// runSweep executes one sweep through the coordinator at the sweep's
// priority and records its artifacts. The TSV bytes are assembled exactly
// as the CLI writes them — one Fprintln per artifact — so a service-run
// sweep's result.tsv is byte-identical to a serial `bashsim -exp` run.
//
// The sweep's start and completion lines are logged here, outside s.mu: the
// completion line before the slot is freed, and the start line by the
// goroutine the freed slot starts, so with one slot the log lists sweeps
// in the order they ran.
func (s *Service) runSweep(sw *sweep, ctx context.Context) {
	defer s.wg.Done()
	s.logf("svc: started sweep %s: %s -scale %s (priority %d)", sw.id, sw.exp, sw.scaleName, sw.priority)
	o := s.opt.Experiments
	o.Scale = sw.scale
	if len(sw.seeds) > 0 {
		o.Seeds = sw.seeds
	}
	o.Context = ctx
	o.Backend = priorityBackend{c: s.coord, priority: sw.priority}
	o.Progress = func(done, total int) { s.observeProgress(sw, done, total) }

	ids := []string{sw.exp}
	if sw.exp == "all" {
		ids = experiments.IDs()
	}
	var buf bytes.Buffer
	var runErr error
	for _, id := range ids {
		arts, err := experiments.Run(id, o)
		if err != nil {
			runErr = err
			break
		}
		for _, a := range arts {
			fmt.Fprintln(&buf, a.TSV())
		}
	}

	s.mu.Lock()
	sw.finished = time.Now()
	switch {
	case runErr == nil:
		sw.state = Done
		sw.result = buf.Bytes()
	case ctx.Err() != nil:
		sw.state = Canceled
		sw.errText = runErr.Error()
	default:
		sw.state = Failed
		sw.errText = runErr.Error()
	}
	state, dur := sw.state, sw.finished.Sub(sw.started)
	s.mu.Unlock()
	if runErr != nil {
		s.logf("svc: sweep %s (%s) %s after %.1fs: %v", sw.id, sw.exp, state, dur.Seconds(), runErr)
	} else {
		s.logf("svc: sweep %s (%s) %s in %.1fs", sw.id, sw.exp, state, dur.Seconds())
	}
	s.mu.Lock()
	s.active--
	s.scheduleLocked()
	s.mu.Unlock()
}

// observeProgress folds one runner progress callback into the sweep's
// cumulative cell counts. Within one sweep done rises strictly; a report at
// or below the last one means a new figure's sweep started, so the previous
// one is banked into the base.
func (s *Service) observeProgress(sw *sweep, done, total int) {
	s.mu.Lock()
	if done <= sw.lastDone {
		sw.baseDone += sw.lastDone
		sw.baseTotal += sw.lastTotal
	}
	sw.lastDone, sw.lastTotal = done, total
	s.mu.Unlock()
}

// priorityBackend adapts one sweep onto the shared coordinator: every
// Backend.Run it issues carries the sweep's priority into the job queue.
type priorityBackend struct {
	c        *dist.Coordinator
	priority int
}

func (b priorityBackend) Run(jobs []runner.Job, opt runner.Options) ([][]byte, error) {
	return b.c.RunPriority(jobs, opt, b.priority)
}

// Drain tears the service down gracefully: refuse new submissions, cancel
// queued sweeps, stop granting jobs and wait (bounded by ctx) for every
// leased batch to finish or expire, then cancel whatever is still running
// and join the sweep goroutines. A sweep whose last cells completed during
// the drain still finishes Done with its full result; one with pending
// work left is Canceled with partial progress intact — nothing is lost or
// double-counted. Returns ctx.Err if leases were still outstanding at the
// deadline.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	now := time.Now()
	for _, sw := range s.sweeps {
		if sw.state == Queued {
			sw.state = Canceled
			sw.errText = "service draining"
			sw.finished = now
		}
	}
	s.mu.Unlock()

	err := s.coord.Drain(ctx)

	s.mu.Lock()
	for _, sw := range s.sweeps {
		if sw.state == Running && sw.cancel != nil {
			sw.cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Status is the combined service snapshot: the coordinator's /dist/status
// aggregate plus every sweep. Drain persistence and the status page render
// from this one struct, so they can never disagree with /metrics about a
// shared counter — all three read the same atomics.
type Status struct {
	Dist   dist.StatusSnapshot `json:"dist"`
	Sweeps []SweepStatus       `json:"sweeps"`
}

// Status snapshots the service.
func (s *Service) Status() Status {
	return Status{Dist: s.coord.Snapshot(), Sweeps: s.SweepStatuses()}
}

// WriteStatus writes the combined snapshot as indented JSON; the CLI
// persists this to -dist-status after a drain.
func (s *Service) WriteStatus(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Status())
}

func (s *Service) logf(format string, args ...any) {
	if s.opt.Log != nil {
		s.opt.Log(format, args...)
	}
}

// handleSweeps serves GET /sweeps: every sweep, submission order.
func (s *Service) handleSweeps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.SweepStatuses())
}

func (s *Service) lookup(id string) (SweepStatus, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.byID[id]
	if !ok {
		return SweepStatus{}, nil, false
	}
	return sw.status(), sw.result, true
}

// handleSweep serves GET /sweeps/{id}.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	st, _, ok := s.lookup(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown sweep "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleResult serves GET /sweeps/{id}/result.tsv: the sweep's artifacts,
// byte-identical to a serial CLI run of the same experiment and scale.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	st, result, ok := s.lookup(r.PathValue("id"))
	if !ok {
		http.Error(w, "unknown sweep "+r.PathValue("id"), http.StatusNotFound)
		return
	}
	switch st.State {
	case Done:
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
		w.Write(result)
	case Failed, Canceled:
		http.Error(w, fmt.Sprintf("sweep %s %s: %s", st.ID, st.State, st.Err), http.StatusInternalServerError)
	default:
		http.Error(w, fmt.Sprintf("sweep %s is %s (%d/%d cells)", st.ID, st.State, st.Done, st.Total),
			http.StatusConflict)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
