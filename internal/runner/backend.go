package runner

// Backends generalize Map from "fan closures across goroutines" to "fan
// serializable jobs across whatever executes them": the same job list the
// in-process pool runs can be leased to worker processes on other machines
// (see internal/dist). A Job carries an opaque serialized spec plus the kind
// of a registered executor, so the transport never needs to know what a job
// computes; the executor registry is how a worker process learns to run the
// coordinator's jobs — both sides register the same kinds at startup.
//
// Backend implementations must preserve Map's contract: results fold in
// job-index order regardless of which worker completed them or when, the
// lowest-indexed failure wins, and a panicking job surfaces as *PanicError
// with its label. The fold is per-job even when the transport moves jobs in
// batches (internal/dist leases several jobs per round-trip and streams
// their results back individually): batching is a transport detail that
// must never surface in result order or error attribution. That is what
// lets the experiment harness produce byte-identical artifacts whether a
// sweep ran on one goroutine or on a fleet of machines.

import (
	"context"
	"fmt"
	"sync"
)

// Job is one remotely executable unit of work.
type Job struct {
	// Kind names the registered executor that runs the job.
	Kind string
	// Key is a stable content address for the job's result (the cell
	// store's cache key): equal keys are guaranteed equal results, so any
	// holder of the key may serve or publish the result.
	Key string
	// Label describes the job in errors and progress output.
	Label string
	// Spec is the serialized job payload, opaque to the transport.
	Spec []byte
}

// Backend executes a batch of jobs and returns their serialized results in
// job-index order. Cancellation, timeout, progress, and worker bounds come
// from opt, exactly as for Map; opt.Label defaults to the jobs' own labels.
// Even on error, the returned slice holds every completed result (failed or
// never-run jobs hold nil).
type Backend interface {
	Run(jobs []Job, opt Options) ([][]byte, error)
}

// Executor runs one job payload of a registered kind, returning the
// serialized result. Executors run on whichever process executes the job —
// the coordinator's for the in-process backend, a worker's for a
// distributed one — and must be pure functions of the spec (plus caches
// keyed by the job Key) so where a job runs never changes a result.
type Executor func(spec []byte) ([]byte, error)

var (
	execMu    sync.RWMutex
	executors = map[string]Executor{}
)

// RegisterExecutor installs the process-wide executor for a job kind.
// Registering a kind again replaces the previous executor (tests re-wire
// cache directories this way).
func RegisterExecutor(kind string, fn Executor) {
	execMu.Lock()
	defer execMu.Unlock()
	if fn == nil {
		delete(executors, kind)
		return
	}
	executors[kind] = fn
}

// ExecutorFor returns the registered executor for kind, nil if none.
func ExecutorFor(kind string) Executor {
	execMu.RLock()
	defer execMu.RUnlock()
	return executors[kind]
}

// Kinds lists the registered executor kinds (a worker advertises them when
// leasing jobs).
func Kinds() []string {
	execMu.RLock()
	defer execMu.RUnlock()
	out := make([]string, 0, len(executors))
	for k := range executors {
		out = append(out, k)
	}
	return out
}

// LocalBackend is the default Backend: the in-process goroutine pool. It
// runs every job through its registered executor via Map, so semantics —
// fold order, panic capture, cancellation, progress — are exactly those of
// the closure-based path.
type LocalBackend struct{}

// Run implements Backend.
func (LocalBackend) Run(jobs []Job, opt Options) ([][]byte, error) {
	if opt.Label == nil {
		opt.Label = func(i int) string { return jobs[i].Label }
	}
	return Map(len(jobs), opt, func(i int) ([]byte, error) {
		fn := ExecutorFor(jobs[i].Kind)
		if fn == nil {
			return nil, fmt.Errorf("no executor registered for job kind %q", jobs[i].Kind)
		}
		// An executor panic propagates into Map's recovery, which
		// attributes it to the job's label like any in-process job.
		return fn(jobs[i].Spec)
	})
}

// RunContext adapts opt for implementations that need a concrete context.
func (o Options) RunContext() (context.Context, context.CancelFunc) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return context.WithCancel(ctx)
}
