// Package tester is the stand-alone random protocol tester of Section 3.4:
// it drives a protocol through "a myriad of corner cases" using false
// sharing (many processors hammering a handful of blocks), random
// action/check (store/load) pairs, and widely variable message latencies,
// while the coherence checker validates SWMR and data values against the
// global total order. It reports transition coverage, mirroring the paper's
// "full coverage for all state transitions with no detected errors".
package tester

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cellstore"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Config parameterizes one tester run.
type Config struct {
	Protocol core.Protocol
	Nodes    int
	// Blocks is the number of falsely shared blocks (small = more racing).
	Blocks int
	// Ops is the total number of operations across all processors.
	Ops uint64
	// MaxThink bounds the random think time between operations.
	MaxThink sim.Time
	// StoreFraction is the probability an operation is a store.
	StoreFraction float64
	// JitterNs randomizes message latencies (0 disables).
	JitterNs int
	// BandwidthMBs throttles links (low values force deep queues).
	BandwidthMBs float64
	// RetryBuffer bounds BASH retries (small values exercise the nack path).
	RetryBuffer int
	// TinyCache forces a small cache so replacements and writebacks race
	// with demand traffic.
	TinyCache bool
	Seed      uint64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.Blocks == 0 {
		c.Blocks = 12
	}
	if c.Ops == 0 {
		c.Ops = 20000
	}
	if c.MaxThink == 0 {
		c.MaxThink = 200
	}
	if c.StoreFraction == 0 {
		c.StoreFraction = 0.5
	}
	if c.BandwidthMBs == 0 {
		c.BandwidthMBs = 800
	}
	return c
}

// Report is the outcome of a tester run.
type Report struct {
	Config       Config
	Ops          uint64
	WriteCommits uint64
	ReadCommits  uint64
	Violations   []string
	// CacheCoverage and MemCoverage are fired/declared transition counts.
	CacheFired, CacheDeclared int
	MemFired, MemDeclared     int
	UncoveredCache            []string
	UncoveredMem              []string
	Retries, Nacks            uint64
	FinalStateErrors          []string
}

// OK reports whether the run found no violations.
func (r Report) OK() bool {
	return len(r.Violations) == 0 && len(r.FinalStateErrors) == 0
}

// Summary renders a human-readable digest.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d ops (%d writes, %d reads checked), %d retries, %d nacks\n",
		r.Config.Protocol, r.Ops, r.WriteCommits, r.ReadCommits, r.Retries, r.Nacks)
	fmt.Fprintf(&b, "  cache transitions: %d/%d fired; memory: %d/%d fired\n",
		r.CacheFired, r.CacheDeclared, r.MemFired, r.MemDeclared)
	if !r.OK() {
		fmt.Fprintf(&b, "  VIOLATIONS: %d value/SWMR, %d final-state\n",
			len(r.Violations), len(r.FinalStateErrors))
	} else {
		fmt.Fprintf(&b, "  no violations detected\n")
	}
	return b.String()
}

// AppendCell appends r's cell-store record: a gob stream of the Report.
// Tester trials are off every benchmarked path, so gob's per-stream cost
// buys a record that follows the struct without a hand-written codec.
func (r Report) AppendCell(dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(buf).Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCell sets r from a record written by AppendCell, refusing trailing
// bytes.
func (r *Report) DecodeCell(src []byte) error {
	rd := bytes.NewReader(src)
	var rep Report
	if err := gob.NewDecoder(rd).Decode(&rep); err != nil {
		return err
	}
	if rd.Len() != 0 {
		return errors.New("tester: trailing bytes after report record")
	}
	*r = rep
	return nil
}

// randomWL is the action/check workload: random load/store pairs over a
// small falsely-shared block set.
type randomWL struct {
	blocks   int
	maxThink sim.Time
	storeP   float64
}

func (w randomWL) Next(rng *sim.RNG, self network.NodeID) (sim.Time, coherence.Op) {
	think := sim.Time(rng.Intn(int(w.maxThink) + 1))
	op := coherence.Op{
		Store: rng.Float64() < w.storeP,
		Addr:  coherence.Addr(rng.Intn(w.blocks)),
	}
	return think, op
}

// sysPool recycles Systems across trials: worker goroutines lease a
// structurally compatible System per (protocol, seed) trial instead of
// constructing one. Reset re-seeds every layer, so a pooled trial's report
// is identical to a fresh-construction one.
var sysPool = core.NewPool()

// systemConfig maps a (defaulted) tester config to its machine config.
func systemConfig(cfg Config) core.Config {
	sysCfg := core.Config{
		Protocol:         cfg.Protocol,
		Nodes:            cfg.Nodes,
		BandwidthMBs:     cfg.BandwidthMBs,
		EnableChecker:    true,
		WatchdogInterval: 100_000_000,
		Seed:             cfg.Seed,
		JitterNs:         cfg.JitterNs,
		RetryBuffer:      cfg.RetryBuffer,
	}
	if cfg.TinyCache {
		// 4 sets x 2 ways: with >8 live blocks, replacements are constant.
		sysCfg.Cache.Sets = 4
		sysCfg.Cache.Ways = 2
	}
	return sysCfg
}

// Run executes one randomized test and returns the report. The System is
// leased from the trial pool; runOn carries the whole trial, so tests can
// drive it with a fresh-constructed System to pin pooled == fresh.
func Run(cfg Config) Report {
	cfg = cfg.withDefaults()
	sys := sysPool.Get(systemConfig(cfg))
	defer sysPool.Put(sys)
	return runOn(sys, cfg)
}

// runOn executes one randomized trial on the given (fresh or leased) System
// built for systemConfig(cfg). cfg must already be defaulted.
func runOn(sys *core.System, cfg Config) Report {
	sys.Checker.Panic = false

	wl := randomWL{blocks: cfg.Blocks, maxThink: cfg.MaxThink, storeP: cfg.StoreFraction}
	sys.AttachWorkload(func(network.NodeID) core.Workload { return wl })
	sys.Start()
	sys.Kernel.RunUntil(func() bool { return sys.TotalOps() >= cfg.Ops })
	sys.Quiesce()

	rep := Report{Config: cfg, Ops: sys.TotalOps()}
	rep.Violations = sys.Checker.Violations
	rep.WriteCommits = sys.Checker.WriteCommits
	rep.ReadCommits = sys.Checker.ReadCommits
	rep.Retries, rep.Nacks = sys.BashRecoveryCounts()
	rep.FinalStateErrors = finalStateCheck(sys, cfg.Blocks)

	cacheTbl := sys.Nodes[0].Cache.Table()
	for _, n := range sys.Nodes[1:] {
		cacheTbl.Merge(n.Cache.Table())
	}
	memTbl := sys.Nodes[0].Mem.Table()
	for _, n := range sys.Nodes[1:] {
		memTbl.Merge(n.Mem.Table())
	}
	rep.CacheFired, rep.CacheDeclared = cacheTbl.Coverage()
	rep.MemFired, rep.MemDeclared = memTbl.Coverage()
	rep.UncoveredCache = cacheTbl.Uncovered()
	rep.UncoveredMem = memTbl.Uncovered()
	return rep
}

// RunConfigs executes one randomized trial per config across the runner's
// worker pool, folding the reports back in config order: the output is
// identical no matter how many workers execute it. Each trial is one shard
// — an independent single-threaded simulation. A trial that panics is
// reported as a *runner.PanicError naming its protocol and seed.
func RunConfigs(cfgs []Config, opt runner.Options) ([]Report, error) {
	applyDefaultLabel(cfgs, &opt)
	return runner.Map(len(cfgs), opt, func(i int) (Report, error) {
		return Run(cfgs[i]), nil
	})
}

// applyDefaultLabel fills opt.Label with the standard trial label when the
// caller supplied none.
func applyDefaultLabel(cfgs []Config, opt *runner.Options) {
	if opt.Label == nil {
		opt.Label = func(i int) string {
			return fmt.Sprintf("trial %s seed=%d", cfgs[i].Protocol, cfgs[i].Seed)
		}
	}
}

// reportFormat versions the persistent report cache; bump it when the
// tester's semantics or the Report layout change, orphaning stale entries.
const reportFormat = 2

// cacheKey renders a (defaulted) config as the persistent store's content
// address; every field that influences the trial appears, plus the binary
// fingerprint, so a rebuilt tester never replays another build's verdicts —
// cached PASS reports must not mask a freshly introduced protocol bug.
func (c Config) cacheKey() string {
	return fmt.Sprintf("bashtest-trial-v%d|bin=%s|proto=%d|nodes=%d|blocks=%d|ops=%d|think=%d|storep=%g|jitter=%d|bw=%g|retry=%d|tiny=%t|seed=%d",
		reportFormat, cellstore.Fingerprint(), int(c.Protocol), c.Nodes, c.Blocks, c.Ops, c.MaxThink,
		c.StoreFraction, c.JitterNs, c.BandwidthMBs, c.RetryBuffer, c.TinyCache, c.Seed)
}

// RunConfigsCached is RunConfigs backed by the persistent cell store under
// cacheDir: a trial whose exact config was already run (by this or any
// earlier process) replays its stored Report instead of simulating, so an
// interrupted multi-seed soak resumes where it stopped. An empty cacheDir
// disables persistence. Every trial is a pure deterministic function of its
// Config, so replayed and fresh reports are identical.
func RunConfigsCached(cfgs []Config, opt runner.Options, cacheDir string) ([]Report, error) {
	st := cellstore.For(cacheDir)
	if st == nil {
		return RunConfigs(cfgs, opt)
	}
	applyDefaultLabel(cfgs, &opt)
	return runner.Map(len(cfgs), opt, func(i int) (Report, error) {
		key := cfgs[i].withDefaults().cacheKey()
		var rep Report
		if st.Get(key, &rep) {
			return rep, nil
		}
		rep = Run(cfgs[i])
		st.Put(key, rep) // best-effort; a failed write re-runs later
		return rep, nil
	})
}

// RunMany shards one base config across seeds — trial i runs cfg with
// Seed=seeds[i] — and returns the reports in seed order. Use
// runner.Seeds(base, n) to derive a well-spread deterministic seed set.
func RunMany(cfg Config, seeds []uint64, opt runner.Options) ([]Report, error) {
	cfgs := make([]Config, len(seeds))
	for i, s := range seeds {
		cfgs[i] = cfg
		cfgs[i].Seed = s
	}
	return RunConfigs(cfgs, opt)
}

// finalStateCheck validates the quiesced system: per block, every valid copy
// carries the last committed value, exactly one agent owns the block, and
// memory's copy is current whenever memory is the owner.
func finalStateCheck(sys *core.System, blocks int) []string {
	var errs []string
	for b := 0; b < blocks; b++ {
		addr := coherence.Addr(b)
		want := sys.Checker.FinalValue(addr)
		owners := 0
		for _, n := range sys.Nodes {
			st := n.Cache.StateOf(addr)
			if !st.IsStable() {
				errs = append(errs, fmt.Sprintf("block %d: node %d quiesced in %s", b, n.ID, st))
				continue
			}
			if st.IsOwnerState() {
				owners++
			}
			if st.HasValidData() {
				if got := n.Cache.ValueOf(addr); got != want {
					errs = append(errs, fmt.Sprintf("block %d: node %d holds %x, want %x", b, n.ID, got, want))
				}
			}
		}
		home := sys.Nodes[sys.HomeOf(addr)]
		val, memOwner := home.Mem.HomeValue(addr)
		if memOwner && owners > 0 {
			errs = append(errs, fmt.Sprintf("block %d: memory and %d caches both own", b, owners))
		}
		if !memOwner && owners != 1 {
			errs = append(errs, fmt.Sprintf("block %d: cache-owned with %d cache owners", b, owners))
		}
		if memOwner && owners == 0 && val != want {
			errs = append(errs, fmt.Sprintf("block %d: memory holds %x, want %x", b, val, want))
		}
	}
	sort.Strings(errs)
	return errs
}
