// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 4 and 5). Each runner returns a Figure (series of
// x/y points with error bars) or a TableResult, both renderable as TSV or
// aligned text. The experiment index is the registry: ExperimentIDs (IDs
// here) enumerates it programmatically, and `cmd/bashsim -list` from the
// command line.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cellstore"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Series is one labelled curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
	Err  []float64 // one standard deviation (paper: drawn when CoV > 1%)
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// TSV renders the figure as one row per x value, one column per series.
func (f *Figure) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "\t%s\t+/-", s.Name)
	}
	b.WriteByte('\n')
	xs := f.xs()
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			if i := indexOf(s.X, x); i >= 0 {
				e := 0.0
				if i < len(s.Err) {
					e = s.Err[i]
				}
				fmt.Fprintf(&b, "\t%.6g\t%.2g", s.Y[i], e)
			} else {
				b.WriteString("\t\t")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (f *Figure) xs() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func indexOf(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// TableResult is a reproduced table.
type TableResult struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// TSV renders the table.
func (t *TableResult) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Scale trades fidelity for runtime.
type Scale int

// Scales. Quick keeps unit tests and benchmarks fast; Full is the
// EXPERIMENTS.md configuration.
const (
	Quick Scale = iota
	Full
)

// Options configures the experiment runners.
type Options struct {
	Scale Scale
	// Seeds for multi-run error bars; nil selects per-scale defaults.
	Seeds []uint64
	// Parallel bounds the worker goroutines used for simulation sweeps:
	// 0 selects one per CPU, 1 runs serially. Results are folded in job
	// order either way, so the output is identical at any setting.
	Parallel int
	// Progress, if non-nil, observes sweep completion: it is called after
	// each simulated cell with (done, total) for the current sweep.
	Progress func(done, total int)
	// Context cancels long sweeps; Run returns its error. Nil means no
	// cancellation.
	Context context.Context
	// WatchdogInterval is the forward-progress watchdog interval for sweep
	// cells in simulated nanoseconds; 0 selects the 500 ms default. Raise
	// it for full-scale >=256-node cells, whose slowest protocol/bandwidth
	// corners can legitimately exceed the default between completions.
	WatchdogInterval sim.Time
	// CacheDir, when non-empty, persists simulated cell results in a
	// content-addressed store under this directory (see internal/cellstore)
	// so later invocations — including after an interrupted run — replay
	// unchanged cells without simulating. Empty disables persistence.
	CacheDir string
	// NoReuse disables System pooling: every cell constructs a fresh
	// core.System instead of leasing a re-seeded one. Results are identical
	// either way (the determinism tests assert it); the switch exists for
	// benchmarking and fault isolation.
	NoReuse bool
	// NoRecycle disables the simulator's hot-path free lists (packets,
	// network messages, line/txn records, directory entries) for every
	// cell: records are allocated fresh and garbage-collected instead of
	// recycled. Results are byte-identical either way (the determinism
	// tests assert it); the switch exists for benchmarking the free lists
	// and for fault isolation. Orthogonal to NoReuse.
	NoRecycle bool
	// Backend, when non-nil, executes simulation cells as serializable jobs
	// through the given runner.Backend (runner.LocalBackend for the
	// in-process executor path, a dist.Coordinator for worker processes on
	// other machines) instead of calling the simulator directly. Cells
	// already present in the in-process memo or the persistent store are
	// served locally; only misses are dispatched. Every backend folds
	// results in job order, so the output is byte-identical to the default
	// nil (direct in-process) path. The predictive experiment inspects
	// simulator internals beyond a cell's Metrics and always runs locally.
	Backend runner.Backend
}

// runnerOptions adapts Options to the orchestration layer for one sweep.
func (o Options) runnerOptions(label func(i int) string) runner.Options {
	return runner.Options{
		Workers:  o.Parallel,
		Context:  o.Context,
		Progress: o.Progress,
		Label:    label,
	}
}

func (o Options) seeds() []uint64 {
	if len(o.Seeds) > 0 {
		return o.Seeds
	}
	if o.Scale == Full {
		return []uint64{11, 23}
	}
	return []uint64{11}
}

func (o Options) ops() (warm, measure uint64) {
	if o.Scale == Full {
		return 4000, 16000
	}
	return 800, 2400
}

// bandwidths returns the endpoint-bandwidth sweep (MB/s, log-spaced), the
// x-axis of Figures 1, 5, 6, 7, 10 and 11.
func (o Options) bandwidths() []float64 {
	if o.Scale == Full {
		return []float64{100, 200, 400, 600, 900, 1300, 1900, 2800, 4200, 6300, 9500, 14000}
	}
	return []float64{200, 600, 1600, 4200, 10000}
}

// the protocols compared throughout the evaluation, in the paper's order.
var evalProtocols = []core.Protocol{core.Snooping, core.BASH, core.Directory}

// runConfig describes one simulated data point. It is the key of both the
// in-process cell memo and (hashed, via cacheKey) the persistent cell
// store, so every field that influences the simulation must appear here.
type runConfig struct {
	protocol      core.Protocol
	nodes         int
	bandwidth     float64
	broadcastCost float64
	think         sim.Time
	workloadName  string // "" selects the locking microbenchmark
	threshold     int    // BASH utilization threshold (0 = default 75)
	interval      sim.Time
	policyBits    uint
	seed          uint64
	warm, measure uint64
	watchdog      sim.Time // watchdog interval (0 = default 500 ms)
}

// cellFormat versions the persistent cell store's key space: bump it when a
// cell's semantics change (simulation model, metrics definition, runConfig
// fields), orphaning stale entries instead of replaying them.
// (v2: BASH retry-buffer slots keyed by requestor+txn, fixing cross-node
// TxnID collisions that undercounted nacks.)
const cellFormat = 2

// defaultWatchdogInterval is the per-cell forward-progress watchdog default
// (simulated ns) applied when neither Options nor the cell specify one.
const defaultWatchdogInterval sim.Time = 500_000_000

// watchdogInterval resolves Options.WatchdogInterval against the default.
func (o Options) watchdogInterval() sim.Time {
	if o.WatchdogInterval > 0 {
		return o.WatchdogInterval
	}
	return defaultWatchdogInterval
}

// cacheKey renders the full configuration of one cell as the persistent
// store's content address. Every runConfig field appears, plus the format
// version and the binary fingerprint — results from a different build of
// the simulator are never replayed. Only the watchdog default is
// normalized (0 and the explicit default share an entry); the adaptive
// fields (threshold/interval/bits) are rendered raw, so a cell written
// with an explicit adaptive default keys separately from its zero-valued
// twin — same split the in-process memo has, costing at most one duplicate
// simulation per such pair. Two invocations with an equal key are
// guaranteed the same Metrics.
//
// The key is built with strconv appends into one buffer; the bytes are
// those of the fmt format
// "bashsim-cell-v%d|bin=%s|proto=%d|nodes=%d|bw=%g|bcost=%g|think=%d|wl=%q|thresh=%d|interval=%d|bits=%d|seed=%d|warm=%d|measure=%d|watchdog=%d",
// which a test keeps as the oracle. Every warm replay builds one key per
// cell, and in a profile of sweep-warm the Sprintf took 8.6% of its CPU.
func (rc runConfig) cacheKey() string {
	wd := rc.watchdog
	if wd == 0 {
		wd = defaultWatchdogInterval
	}
	var buf [256]byte
	b := append(buf[:0], "bashsim-cell-v"...)
	b = strconv.AppendInt(b, cellFormat, 10)
	b = append(b, "|bin="...)
	b = append(b, cellstore.Fingerprint()...)
	b = append(b, "|proto="...)
	b = strconv.AppendInt(b, int64(rc.protocol), 10)
	b = append(b, "|nodes="...)
	b = strconv.AppendInt(b, int64(rc.nodes), 10)
	b = append(b, "|bw="...)
	b = strconv.AppendFloat(b, rc.bandwidth, 'g', -1, 64)
	b = append(b, "|bcost="...)
	b = strconv.AppendFloat(b, rc.broadcastCost, 'g', -1, 64)
	b = append(b, "|think="...)
	b = strconv.AppendInt(b, int64(rc.think), 10)
	b = append(b, "|wl="...)
	b = strconv.AppendQuote(b, rc.workloadName)
	b = append(b, "|thresh="...)
	b = strconv.AppendInt(b, int64(rc.threshold), 10)
	b = append(b, "|interval="...)
	b = strconv.AppendInt(b, int64(rc.interval), 10)
	b = append(b, "|bits="...)
	b = strconv.AppendUint(b, uint64(rc.policyBits), 10)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, rc.seed, 10)
	b = append(b, "|warm="...)
	b = strconv.AppendUint(b, rc.warm, 10)
	b = append(b, "|measure="...)
	b = strconv.AppendUint(b, rc.measure, 10)
	b = append(b, "|watchdog="...)
	b = strconv.AppendInt(b, int64(wd), 10)
	return string(b)
}

// makeWorkload builds the generator and the warm-start block list. The
// list is shared, read-only, by every cell of the same shape; see warmSet.
func makeWorkload(rc runConfig) (core.Workload, []coherence.Addr) {
	if rc.workloadName == "" {
		lk := workload.NewLocking(128*rc.nodes, rc.think)
		return lk, warmSet(warmKey{locks: lk.Locks}, lk)
	}
	w := workload.ByName(rc.workloadName)
	if w == nil {
		panic("experiments: unknown workload " + rc.workloadName)
	}
	return w, warmSet(warmKey{name: rc.workloadName}, w)
}

// warmKey is what a warm set depends on: the lock count of the locking
// microbenchmark, or the name of a registered workload, whose pool is
// fixed by its name.
type warmKey struct {
	name  string
	locks int
}

// warmSets holds one warm set per shape for the life of the process. A
// 16,384-block list is 128 KB; building one per cell would be most of
// what a pooled sweep allocates. The lists are read-only once built: cells
// on several workers read them at once, and a System keeps its own copy.
var warmSets = struct {
	sync.Mutex
	m map[warmKey][]coherence.Addr
}{m: make(map[warmKey][]coherence.Addr)}

// warmSet returns the shared warm set for k, building it from g once.
func warmSet(k warmKey, g interface{ WarmBlocks() []coherence.Addr }) []coherence.Addr {
	warmSets.Lock()
	defer warmSets.Unlock()
	ws, ok := warmSets.m[k]
	if !ok {
		ws = g.WarmBlocks()
		warmSets.m[k] = ws
	}
	return ws
}

// sysPool recycles Systems across sweep cells. Workers lease a structurally
// compatible System per cell (re-seeded via core.System.Reset) instead of
// constructing one, which removes the dominant remaining per-cell cost; see
// BenchmarkSystemReuse. Options.NoReuse bypasses it.
var sysPool = core.NewPool()

// simCount counts actual simulations (runOne executions) process-wide. The
// persistent-cache tests assert a warm cache performs zero of them, and the
// CLIs report it alongside cache hit/miss counts.
var simCount atomic.Uint64

// Simulations returns the number of cells actually simulated (as opposed to
// served from the in-process memo or the persistent store) by this process.
func Simulations() uint64 { return simCount.Load() }

// leaseSystem checks a System for cfg out of the pool (or builds one fresh
// under Options.NoReuse) and returns it with its release function.
func leaseSystem(o Options, cfg core.Config) (*core.System, func()) {
	if o.NoReuse {
		return core.NewSystem(cfg), func() {}
	}
	s := sysPool.Get(cfg)
	return s, func() { sysPool.Put(s) }
}

// runOne simulates one data point. Warm-up and measurement operation
// counts are system-wide totals, scaled with system size above the
// 16-processor baseline so that the per-processor counts stay fixed from
// 16 processors up: Quick gives each processor 50 warm-up and 150
// measured operations (800 and 2,400 at 16p), Full 250 and 1,000. That is
// less than the paper's mechanism needs to swing across its full range
// (~130k cycles, 255 samples of 512), so BASH can be measured before its
// policy counter settles; ROADMAP's "BASH must converge before it is
// measured" item tracks the fix. The warm set goes in Config.Preheat, so
// a pooled System that ran the same warm set last rolls back to it rather
// than installing it again.
func runOne(o Options, rc runConfig) core.Metrics {
	simCount.Add(1)
	if rc.nodes > 16 {
		scale := uint64(rc.nodes / 16)
		rc.warm *= scale
		rc.measure *= scale
	}
	wd := rc.watchdog
	if wd == 0 {
		wd = defaultWatchdogInterval
	}
	cfg := core.Config{
		Protocol:         rc.protocol,
		Nodes:            rc.nodes,
		BandwidthMBs:     rc.bandwidth,
		BroadcastCost:    rc.broadcastCost,
		Seed:             rc.seed,
		WatchdogInterval: wd,
		NoRecycle:        o.NoRecycle,
	}
	cfg.Adaptive.ThresholdPercent = rc.threshold
	cfg.Adaptive.Interval = rc.interval
	cfg.Adaptive.PolicyBits = rc.policyBits
	wl, warm := makeWorkload(rc)
	cfg.Preheat = warm
	sys, release := leaseSystem(o, cfg)
	defer release()
	sys.AttachWorkload(func(network.NodeID) core.Workload { return wl })
	return sys.Measure(rc.warm, rc.measure)
}

// cellMemo caches runOne results per runConfig within one process. Several
// figures share identical (protocol, bandwidth, seed) cells — Figures 1, 5
// and 6 present one sweep three ways, Figure 12 re-measures Figure 11's
// 1600 MB/s column, Figure 9's zero-think point is Figure 1's mid cell —
// and every run is a pure deterministic function of its runConfig, so each
// distinct cell is simulated exactly once per process.
var cellMemo sync.Map // runConfig -> core.Metrics

// memoHits counts cells served straight from the in-process memo,
// process-wide like simCount; with Simulations and Fetched it completes the
// where-did-this-cell-come-from accounting on /metrics.
var memoHits atomic.Uint64

// MemoHits returns the number of cells this process served from the
// in-process memo rather than the persistent store, the fleet, or a fresh
// simulation.
func MemoHits() uint64 { return memoHits.Load() }

// lookupCell consults the in-process memo, then (when Options.CacheDir is
// set) the persistent cell store, without simulating.
func lookupCell(o Options, rc runConfig) (core.Metrics, bool) {
	if m, ok := memoCell(rc); ok {
		return m, true
	}
	return storedCell(o, rc, rc.cacheKey())
}

// memoCell consults the in-process memo.
func memoCell(rc runConfig) (core.Metrics, bool) {
	if v, ok := cellMemo.Load(rc); ok {
		memoHits.Add(1)
		return v.(core.Metrics), true
	}
	return core.Metrics{}, false
}

// storedCell consults the persistent cell store (when Options.CacheDir is
// set) under key, rc's cacheKey, memoizing a hit.
func storedCell(o Options, rc runConfig, key string) (core.Metrics, bool) {
	if st := cellstore.For(o.CacheDir); st != nil {
		var m core.Metrics
		if st.Get(key, &m) {
			v, _ := cellMemo.LoadOrStore(rc, m)
			return v.(core.Metrics), true
		}
	}
	return core.Metrics{}, false
}

// storeCell writes a freshly obtained result under key, rc's cacheKey,
// through both cache layers (the persistent write is best-effort: a
// failure only re-simulates later) and returns the canonical memoized
// value.
func storeCell(o Options, rc runConfig, key string, m core.Metrics) core.Metrics {
	if st := cellstore.For(o.CacheDir); st != nil {
		st.Put(key, m)
	}
	v, _ := cellMemo.LoadOrStore(rc, m)
	return v.(core.Metrics)
}

// fetchCount counts cells obtained from the fleet (peer cell exchange)
// instead of being simulated, process-wide like simCount.
var fetchCount atomic.Uint64

// Fetched returns the number of cells this process installed via the peer
// cell exchange rather than simulating.
func Fetched() uint64 { return fetchCount.Load() }

// fetchCell asks the fleet for rc's cell, under key (rc's cacheKey),
// through the runner's key-fetcher seam (installed by dist.RunWorker;
// absent outside a worker). Fetched bytes are verified against the
// content-addressed key — the key embeds the binary fingerprint, so a
// mismatched build's entry can never decode here — then written through
// both cache layers. Every failure degrades to ok=false and the caller
// simulates: a false positive in a peer's indicator costs one round-trip,
// never a wrong result.
func fetchCell(o Options, rc runConfig, key string) (core.Metrics, bool) {
	raw, ok := runner.FetchKey(key)
	if !ok {
		return core.Metrics{}, false
	}
	var m core.Metrics
	if err := cellstore.DecodeRaw(raw, key, &m); err != nil {
		return core.Metrics{}, false
	}
	if st := cellstore.For(o.CacheDir); st != nil {
		st.PutRaw(key, raw) // best-effort: this worker can now serve relays for it
	}
	fetchCount.Add(1)
	v, _ := cellMemo.LoadOrStore(rc, m)
	return v.(core.Metrics), true
}

// runMemo returns the metrics for rc, consulting the in-process memo, then
// (when Options.CacheDir is set) the persistent cell store, then the fleet
// via the peer cell exchange, and simulating only when all three miss.
// Fresh results are written through to both cache layers, so an
// interrupted full-scale run resumes where it left off. A memo miss builds
// the cell's key once for all three.
func runMemo(o Options, rc runConfig) core.Metrics {
	if m, ok := memoCell(rc); ok {
		return m
	}
	key := rc.cacheKey()
	if m, ok := storedCell(o, rc, key); ok {
		return m
	}
	if m, ok := fetchCell(o, rc, key); ok {
		return m
	}
	return storeCell(o, rc, key, runOne(o, rc))
}

// CacheCounters reports the persistent cell store's hit/miss/write counts
// for dir (zeros when no store was opened there). The CLIs print these with
// their progress output.
func CacheCounters(dir string) (hits, misses, writes uint64) {
	if st := cellstore.For(dir); st != nil {
		return st.Counters()
	}
	return 0, 0, 0
}

// ResetMemo drops every memoized cell, forcing subsequent runs to
// re-simulate. Benchmarks and determinism tests use it so repeated
// invocations measure simulation rather than cache lookups.
func ResetMemo() {
	cellMemo.Range(func(k, _ any) bool {
		cellMemo.Delete(k)
		return true
	})
}

// abort carries a sweep failure (cancellation or a captured simulation
// panic) out of a figure function; Run recovers it into an error, so the
// figure functions keep their plain signatures.
type abort struct{ err error }

func (a abort) Error() string { return a.err.Error() }

// sweepResult aggregates one (protocol, x) cell across seeds.
type sweepResult struct {
	throughput  stats.Accumulator
	utilization stats.Accumulator
	missLatency stats.Accumulator
	broadcast   stats.Accumulator
}

// runSweep evaluates base across seeds for every (protocol, x) combination,
// where vary mutates the config for each x. Every run is an independent
// single-threaded simulation, so the sweep fans out across the runner's
// worker pool; runner.Map folds results in job order, so cells accumulate
// seeds deterministically regardless of completion order or worker count.
func runSweep(o Options, protocols []core.Protocol, xs []float64, base runConfig,
	seeds []uint64, vary func(rc *runConfig, x float64)) map[core.Protocol][]*sweepResult {

	base.watchdog = o.WatchdogInterval
	type job struct {
		pi, xi int
		rc     runConfig
	}
	var jobs []job
	for pi, p := range protocols {
		for xi, x := range xs {
			for _, seed := range seeds {
				rc := base
				rc.protocol = p
				rc.seed = seed
				vary(&rc, x)
				jobs = append(jobs, job{pi: pi, xi: xi, rc: rc})
			}
		}
	}
	label := func(i int) string {
		j := jobs[i]
		return fmt.Sprintf("cell %s x=%g seed=%d", protocols[j.pi], xs[j.xi], j.rc.seed)
	}
	rcs := make([]runConfig, len(jobs))
	for i, j := range jobs {
		rcs[i] = j.rc
	}
	results := runCells(o, rcs, label)

	out := make(map[core.Protocol][]*sweepResult)
	for _, p := range protocols {
		cells := make([]*sweepResult, len(xs))
		for xi := range xs {
			cells[xi] = &sweepResult{}
		}
		out[p] = cells
	}
	for ji, j := range jobs {
		m := results[ji]
		cell := out[protocols[j.pi]][j.xi]
		cell.throughput.Add(m.Throughput)
		cell.utilization.Add(m.Utilization)
		cell.missLatency.Add(m.AvgMissLatency)
		cell.broadcast.Add(m.BroadcastFraction)
	}
	return out
}

// seriesFrom builds a Series from per-cell accumulators via sel, normalized
// by norm (pass 1 for raw values).
func seriesFrom(name string, xs []float64, cells []*sweepResult,
	sel func(*sweepResult) *stats.Accumulator, norm float64) Series {

	s := Series{Name: name}
	for i, x := range xs {
		a := sel(cells[i])
		s.X = append(s.X, x)
		s.Y = append(s.Y, a.Mean()/norm)
		s.Err = append(s.Err, a.StdDev()/norm)
	}
	return s
}

// maxThroughput finds the largest mean throughput across protocols/cells
// (the paper normalizes several figures to the best configuration).
func maxThroughput(m map[core.Protocol][]*sweepResult) float64 {
	best := 0.0
	for _, cells := range m {
		for _, c := range cells {
			if v := c.throughput.Mean(); v > best {
				best = v
			}
		}
	}
	if best == 0 {
		return 1
	}
	return best
}
