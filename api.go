package bashsim

import (
	"context"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/cellstore"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/queueing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/tester"
	"repro/internal/workload"
)

// System construction and measurement (internal/core).
type (
	// Config describes a simulated machine.
	Config = core.Config
	// System is a complete simulated machine.
	System = core.System
	// Node is one integrated processor/memory node.
	Node = core.Node
	// Metrics is the result of one measured run.
	Metrics = core.Metrics
	// Protocol selects a coherence protocol.
	Protocol = core.Protocol
	// Workload generates one processor's reference stream.
	Workload = core.Workload
	// Trace records message deliveries for walkthroughs.
	Trace = core.Trace
)

// Protocols.
const (
	Snooping            = core.Snooping
	Directory           = core.Directory
	BASH                = core.BASH
	BashAlwaysBroadcast = core.BashAlwaysBroadcast
	BashAlwaysUnicast   = core.BashAlwaysUnicast
	BashSwitch          = core.BashSwitch
)

// Identifiers and simulated time.
type (
	// NodeID identifies a node.
	NodeID = network.NodeID
	// Addr is a cache block address.
	Addr = cache.Addr
	// CacheConfig sizes the L2 array (Config.Cache; zero selects the
	// paper's 4 MB 4-way 64 B geometry).
	CacheConfig = cache.Config
	// Time is simulated nanoseconds (= cycles).
	Time = sim.Time
	// Op is one processor memory operation.
	Op = coherence.Op
	// Recycler bundles a System's shared hot-path free lists (packets,
	// line/txn records, directory entries); System.Recycler exposes it for
	// leak checks (Live) and diagnostics. Config.NoRecycle disables it.
	Recycler = coherence.Recycler
	// Kernel is the deterministic discrete-event scheduler, firing events
	// in (time, schedule-order) order from a time wheel for the next
	// 1,024 ns and a 4-ary heap beyond it, with zero steady-state
	// allocations per Schedule/Step and a Reset method for reuse across
	// runs.
	Kernel = sim.Kernel
)

// NewKernel returns an empty event kernel at time zero.
func NewKernel() *Kernel { return sim.NewKernel() }

// Sharded run orchestration (internal/runner): the worker-pool layer the
// experiment harness, the protocol tester, and the CLIs all schedule their
// fleets of independent simulations through. Results fold in job order, so
// serial and parallel execution produce identical output; panicking jobs
// are captured as *RunnerPanicError with their config label.
type (
	// RunnerOptions bounds workers and wires cancellation, timeouts, and
	// progress callbacks for one parallel invocation.
	RunnerOptions = runner.Options
	// RunnerPanicError reports a job that panicked, with its label, index
	// and captured stack.
	RunnerPanicError = runner.PanicError
	// ShardRange is a half-open index interval of a sharded job list.
	ShardRange = runner.Range
)

// ParallelMap runs fn(0..n-1) across a bounded worker pool, returning the
// results in job-index order regardless of completion order.
func ParallelMap[T any](n int, opt RunnerOptions, fn func(i int) (T, error)) ([]T, error) {
	return runner.Map(n, opt, fn)
}

// ParallelEach is ParallelMap without per-job results.
func ParallelEach(n int, opt RunnerOptions, fn func(i int) error) error {
	return runner.Each(n, opt, fn)
}

// ShardSeeds derives n deterministic, well-spread RNG seeds from base
// (SplitMix64), so shard i of a sweep replays identically at any worker
// count.
func ShardSeeds(base uint64, n int) []uint64 { return runner.Seeds(base, n) }

// ShardChunks splits [0, total) into at most shards near-equal ranges for
// batch-sharding job lists whose items are too cheap to dispatch singly.
func ShardChunks(total, shards int) []ShardRange { return runner.Chunks(total, shards) }

// Distributed execution (internal/dist + the runner backend seam): fan
// simulation cells across worker processes and machines with byte-identical
// results. See the "Distributed sweeps" section of the package
// documentation and `bashsim -serve` / `bashsim -worker`.
type (
	// Backend executes batches of serializable jobs: the in-process pool
	// (LocalBackend) or a distributed coordinator. ExperimentOptions.Backend
	// selects one for experiment sweeps; nil keeps the direct in-process
	// path.
	Backend = runner.Backend
	// RunnerJob is one remotely executable unit of work: a registered
	// executor kind, a content-address key, and an opaque serialized spec.
	RunnerJob = runner.Job
	// DistOptions tunes the coordinator's lease-based job protocol:
	// LeaseTTL and MaxLeaseExpiries bound dead-worker recovery, LeaseBatch
	// sets how many jobs one lease grants (with result-reply refills and
	// adaptive shrink near queue exhaustion), Secret authenticates every
	// wire connection and HTTP request with a constant-time shared-secret
	// check, CoExecute runs worker slots on the coordinator itself (over
	// an in-memory wire connection) so a lone coordinator still makes
	// progress, and CacheDir opens the coordinator's own cell store for
	// the peer cell exchange (a worker fetches from it when no peer
	// serves the cell: direct → coordinator store → simulate).
	DistOptions = dist.CoordinatorOptions
	// DistCoordinator owns the job queue and lease table, serves the wire
	// protocol (binary frames over one persistent connection per worker),
	// and implements Backend. Serve it with its Serve method so
	// /dist/status reports socket-level byte counters.
	DistCoordinator = dist.Coordinator
	// DistWorkerOptions configures one worker process (Secret must match
	// the coordinator's; MaxBatch caps accepted batch sizes; Wire must be
	// "" or "binary", the only transport; CacheDir names the worker's cell
	// store; PeerAddr serves that store to other workers directly and
	// advertises it to the coordinator, whose advertisement traffic
	// AdvertBudget caps in bytes per second — a worker without PeerAddr
	// fetches but neither serves nor advertises).
	DistWorkerOptions = dist.WorkerOptions
	// DistStats are a coordinator's lifetime dispatch counters, including
	// lease/refill round-trip counts, expired-lease reassignments, the
	// peer-cell-exchange counters (adverts; fetches asked of the
	// coordinator's store, served, and false positives), and the
	// direct-data-path counters (worker-reported direct fetches, and
	// coordinator-store fetches after a failed direct try; PeerPuts always
	// reads 0). A cell is fetched direct → coordinator store → simulated.
	DistStats = dist.Stats
	// DistAuthError is the terminal error a worker returns when the
	// coordinator rejects its shared secret (an auth-failed ERROR frame on
	// the wire; status queries get it for an HTTP 401): unlike connection
	// errors, it is not retried.
	DistAuthError = dist.AuthError
)

// NewLocalBackend returns the in-process Backend: jobs run through their
// registered executors on the goroutine pool, with Map's exact semantics.
func NewLocalBackend() Backend { return runner.LocalBackend{} }

// NewDistCoordinator returns an idle distributed-sweep coordinator; mount
// its Handler on an HTTP server and pass it as ExperimentOptions.Backend.
func NewDistCoordinator(o DistOptions) *DistCoordinator { return dist.NewCoordinator(o) }

// RunDistWorker leases and executes jobs from a coordinator until ctx is
// canceled. Call RegisterDistExecutors (or the internal registrars) first so
// the worker has kinds to advertise.
func RunDistWorker(ctx context.Context, o DistWorkerOptions) error { return dist.RunWorker(ctx, o) }

// RegisterDistExecutors registers this process's executors for both
// distributed job kinds — experiment cells and tester trials — publishing
// results into the cell store under cacheDir (empty disables persistence).
// Worker processes call it at startup; a coordinator using
// DistOptions.CoExecute must call it too, since its in-process worker
// executes through the same registry.
func RegisterDistExecutors(cacheDir string) {
	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cacheDir})
	tester.RegisterTrialExecutor(cacheDir)
}

// Sweep service and observability (internal/svc + internal/obs): the
// long-lived multi-tenant layer over the distributed coordinator. A
// SweepService stays up with an empty queue, accepts named sweep
// submissions from separate processes (`bashsim -submit URL -exp fig1`,
// or any HTTP client's JSON POST /dist/submit), runs them FIFO within
// priority over one shared worker fleet, and serves results,
// a Prometheus-style /metrics endpoint, and a no-JavaScript live status
// page. See the "Observability" and "Service mode" sections of the
// package documentation and `bashsim -serve` without `-exp`.
type (
	// MetricsRegistry is the dependency-free metrics registry behind GET
	// /metrics: Counter/Gauge/Histogram instruments backed by atomics
	// (safe to update from simulation hot paths), read-through
	// CounterFunc/GaugeFunc/Collect registrations for sampling existing
	// counters at scrape time, and an Expose method emitting the
	// Prometheus text exposition format. (Named MetricsRegistry because
	// Metrics — a simulation run's measured results — was here first.)
	MetricsRegistry = obs.Registry
	// ServeOptions configures a sweep service: the embedded coordinator
	// (DistOptions), the base experiment options every sweep inherits
	// (scale and priority come from each submission), MaxActive
	// concurrently running sweeps (default 2; queued sweeps start
	// highest-priority-first as slots free), an optional shared
	// MetricsRegistry, and a log sink.
	ServeOptions = svc.Options
	// SweepService is the long-lived coordinator service. It owns one
	// DistCoordinator, schedules each accepted sweep as one prioritized
	// run over the shared fleet, and serves the HTTP surface: /dist/*
	// (the wire protocol plus submissions), /sweeps and /sweeps/{id}
	// (JSON), /sweeps/{id}/result.tsv (bytes identical to `bashsim -exp`
	// output), /metrics, and the live status page at /. Drain stops
	// admissions and grants, lets leased batches finish or expire, and
	// persists nothing by itself — WriteStatus captures the final
	// snapshot.
	SweepService = svc.Service
	// SweepServiceStatus is one sweep's externally visible lifecycle
	// record, as served by GET /sweeps.
	SweepServiceStatus = svc.SweepStatus
	// SweepSubmitRequest names one sweep to submit: an experiment id (or
	// "all"), a scale, and a priority (higher preempts queue order, not
	// running sweeps).
	SweepSubmitRequest = dist.SubmitRequest
	// SweepSubmitResponse is the service's acceptance decision: the
	// assigned sweep id and queue position, or a rejection reason.
	SweepSubmitResponse = dist.SubmitResponse
)

// NewSweepService returns a sweep service ready to Serve; its embedded
// coordinator, registry and HTTP handler are reachable via accessors.
func NewSweepService(o ServeOptions) *SweepService { return svc.New(o) }

// NewMetricsRegistry returns an empty metrics registry. SweepService
// creates its own when ServeOptions.Registry is nil; create one explicitly
// to add process-specific instruments next to the built-in bashsim_*
// families.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// SubmitSweep submits one named sweep to the running sweep service at
// o.Coordinator (a base URL such as "http://host:8497") and returns the
// service's acceptance decision. The submission is one JSON POST
// /dist/submit carrying o.Secret in the X-Bashsim-Secret header, not a
// worker session (`bashsim -submit URL` from the command line); a wrong
// secret returns *DistAuthError.
func SubmitSweep(ctx context.Context, o DistWorkerOptions, req SweepSubmitRequest) (SweepSubmitResponse, error) {
	return dist.SubmitSweep(ctx, o, req)
}

// CellStoreGC evicts stale-format and older-than-maxAge entries from the
// cell store under dir (`bashsim -cache-gc` from the command line).
func CellStoreGC(dir string, maxAge time.Duration) (cellstore.GCResult, error) {
	st, err := cellstore.Open(dir)
	if err != nil {
		return cellstore.GCResult{}, err
	}
	return st.GC(maxAge)
}

// LoadCellStoreManifest reads the per-experiment cache-effectiveness
// manifest persisted alongside the store under dir.
func LoadCellStoreManifest(dir string) *cellstore.Manifest { return cellstore.LoadManifest(dir) }

// NewSystem builds a simulated machine.
func NewSystem(cfg Config) *System { return core.NewSystem(cfg) }

// SystemPool recycles Systems across runs (the pooled simulation
// lifecycle). Systems are bucketed by structural configuration — protocol,
// node count, cache geometry, retry buffer, predictor and checker/watchdog
// presence — and a leased System is re-seeded via System.Reset, which
// guarantees results byte-identical to fresh construction while skipping
// its allocation cost (see BenchmarkSystemReuse). Per-run parameters
// (bandwidth, broadcast cost, seeds, jitter, adaptive tuning, watchdog
// interval) may vary freely within a bucket. Safe for concurrent use; each
// leased System remains single-threaded. The experiment harness and the
// protocol tester lease every simulation through pools of this type.
type SystemPool = core.Pool

// NewSystemPool returns an empty System pool.
func NewSystemPool() *SystemPool { return core.NewPool() }

// Workloads (internal/workload).
type (
	// LockingWorkload is the paper's locking microbenchmark.
	LockingWorkload = workload.Locking
	// SyntheticWorkload models one of the paper's full-system workloads.
	SyntheticWorkload = workload.Synthetic
	// MigratoryWorkload is the migratory-sharing microbenchmark from the
	// destination-set-prediction follow-up work.
	MigratoryWorkload = workload.Migratory
	// WorkloadGenerator is any registered workload: a reference stream
	// plus its warm-start block list.
	WorkloadGenerator = workload.Generator
)

// NewLockingWorkload returns the Section 4.1 microbenchmark.
func NewLockingWorkload(locks int, think Time) *LockingWorkload {
	return workload.NewLocking(locks, think)
}

// Workload constructors for the five Table 2 workloads and the
// sharing-pattern microbenchmarks (migratory and producer-consumer).
var (
	OLTP                = workload.OLTP
	Apache              = workload.Apache
	SPECjbb             = workload.SPECjbb
	Slashcode           = workload.Slashcode
	BarnesHut           = workload.BarnesHut
	NewMigratory        = workload.NewMigratory
	NewProducerConsumer = workload.NewProducerConsumer
)

// WorkloadByName resolves a registered workload by name (nil if unknown).
func WorkloadByName(name string) WorkloadGenerator { return workload.ByName(name) }

// WorkloadNames lists the registered named workloads.
func WorkloadNames() []string { return workload.Names() }

// Adaptive mechanism (internal/adaptive).
type (
	// AdaptiveConfig parameterizes the Section 2 mechanism.
	AdaptiveConfig = adaptive.Config
	// UtilizationCounter is the signed saturating counter of Figure 3.
	UtilizationCounter = adaptive.UtilizationCounter
	// PolicyCounter is the unsigned saturating policy counter.
	PolicyCounter = adaptive.PolicyCounter
	// LFSR is the hardware pseudo-random number generator.
	LFSR = adaptive.LFSR
)

// NewUtilizationCounter returns the Figure 3 counter for a threshold.
func NewUtilizationCounter(thresholdPercent int, limit int64) *UtilizationCounter {
	return adaptive.NewUtilizationCounter(thresholdPercent, limit)
}

// NewPolicyCounter returns a saturating policy counter of the given width.
func NewPolicyCounter(bits uint) *PolicyCounter { return adaptive.NewPolicyCounter(bits) }

// NewLFSR returns the 16-bit Galois LFSR used for request decisions.
func NewLFSR(seed uint16) *LFSR { return adaptive.NewLFSR(seed) }

// Experiments (internal/experiments): regenerate the paper's artifacts.
type (
	// ExperimentOptions selects scale and seeds.
	ExperimentOptions = experiments.Options
	// Figure is a reproduced figure.
	Figure = experiments.Figure
	// TableResult is a reproduced table.
	TableResult = experiments.TableResult
	// Renderable is any reproduced artifact.
	Renderable = experiments.Renderable
)

// Experiment scales.
const (
	Quick = experiments.Quick
	Full  = experiments.Full
)

// RunExperiment regenerates one table or figure by id ("fig1".."fig12",
// "table1", "stability", "ablation").
func RunExperiment(id string, o ExperimentOptions) ([]Renderable, error) {
	return experiments.Run(id, o)
}

// ExperimentIDs lists the available experiments.
func ExperimentIDs() []string { return experiments.IDs() }

// ResetExperimentMemo drops the process-wide cache of simulated experiment
// cells. Identical (protocol, bandwidth, seed) cells shared across figures
// are normally simulated once per process; reset when repeated invocations
// must re-simulate (benchmarks, timing comparisons).
func ResetExperimentMemo() { experiments.ResetMemo() }

// ParseSeeds parses a comma-separated seed list ("11,23,37") as accepted
// by the -seeds flag, with descriptive errors for non-integers.
func ParseSeeds(s string) ([]uint64, error) { return experiments.ParseSeeds(s) }

// ValidateSeeds rejects empty and duplicate-bearing seed lists with
// descriptive errors.
func ValidateSeeds(seeds []uint64) error { return experiments.ValidateSeeds(seeds) }

// Campaigns (internal/campaign): the long-running, resumable full-scale
// figure campaign with CoV-targeted seed escalation (`bashsim -campaign`
// from the command line; see doc.go, section Campaigns).
type (
	// ExperimentScale selects per-cell operation counts and default seed
	// lists (Quick or Full).
	ExperimentScale = experiments.Scale
	// SimulationCell describes one simulation point for
	// RunSimulationCells: the public mirror of the harness's internal cell
	// spec — equal cells are guaranteed equal Metrics.
	SimulationCell = experiments.Cell
	// CampaignOptions configures one campaign: harness options, grid,
	// CoV target, seed cap, checkpoint path, priority, and log sink.
	CampaignOptions = campaign.Options
	// Campaign is one configured campaign run: New, optionally
	// RegisterMetrics, then Run once.
	Campaign = campaign.Campaign
	// CampaignGrid is a named, ordered set of panels — the campaign's
	// unit of definition and of checkpoint compatibility.
	CampaignGrid = campaign.Grid
	// CampaignPanel is one declarative sub-grid: all three protocols over
	// its Xs with every other cell coordinate fixed.
	CampaignPanel = campaign.Panel
	// CampaignResult summarizes a completed campaign.
	CampaignResult = campaign.Result
	// CampaignPanelResult is one finished panel's artifact.
	CampaignPanelResult = campaign.PanelResult
)

// NewCampaign validates the grid and knobs and prepares the deterministic
// per-campaign seed sequence.
func NewCampaign(o CampaignOptions) (*Campaign, error) { return campaign.New(o) }

// DefaultCampaignGrid returns the built-in campaign grid for a scale: the
// paper's full evaluation (dense log-spaced bandwidth grids, scaling to
// 256 nodes, both broadcast costs across every workload) for Full, a
// small same-shaped grid for Quick.
func DefaultCampaignGrid(scale ExperimentScale) *CampaignGrid {
	return campaign.DefaultGrid(scale)
}

// RunSimulationCells evaluates one simulation cell per entry and returns
// their metrics in input order, serving repeats from the memo and the
// persistent cell store and dispatching misses through o.Backend when one
// is set. Unlike RunExperiment it reports failure as an error rather than
// a panic, so long-running callers can checkpoint and retry.
func RunSimulationCells(o ExperimentOptions, cells []SimulationCell) ([]Metrics, error) {
	return experiments.RunCells(o, cells)
}

// Random protocol tester (internal/tester).
type (
	// TesterConfig parameterizes a random protocol test.
	TesterConfig = tester.Config
	// TesterReport is the outcome.
	TesterReport = tester.Report
)

// RunTester executes one randomized protocol test (Section 3.4).
func RunTester(cfg TesterConfig) TesterReport { return tester.Run(cfg) }

// RunTesterMany shards one tester config across seeds (trial i runs with
// Seed=seeds[i]) over the orchestration layer, returning reports in seed
// order regardless of worker count.
func RunTesterMany(cfg TesterConfig, seeds []uint64, opt RunnerOptions) ([]TesterReport, error) {
	return tester.RunMany(cfg, seeds, opt)
}

// RunTesterConfigs executes one randomized trial per config in parallel,
// folding reports back in config order.
func RunTesterConfigs(cfgs []TesterConfig, opt RunnerOptions) ([]TesterReport, error) {
	return tester.RunConfigs(cfgs, opt)
}

// RunTesterConfigsOn executes the trials through an arbitrary Backend (nil
// selects the in-process cached path), serving and publishing reports via
// the store under cacheDir; reports fold in config order either way.
func RunTesterConfigsOn(backend Backend, cfgs []TesterConfig, opt RunnerOptions, cacheDir string) ([]TesterReport, error) {
	return tester.RunConfigsOn(backend, cfgs, opt, cacheDir)
}

// Queueing model (internal/queueing, Figure 2).
type QueueResult = queueing.Result

// QueueAnalytic solves the closed machine-repairman model exactly.
func QueueAnalytic(n int, meanThink float64) QueueResult {
	return queueing.Analytic(n, meanThink)
}

// QueueSimulate runs the same model by discrete-event simulation.
func QueueSimulate(n int, meanThink float64, completions int, seed uint64) QueueResult {
	return queueing.Simulate(n, meanThink, completions, seed)
}
