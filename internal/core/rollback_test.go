package core_test

// Rollback tests: a System re-leased with the warm set it already holds
// undoes the previous run instead of clearing and re-installing. These
// tests pin that such a System is indistinguishable from one freshly built
// with the same Config, state for state and metric for metric, whichever
// path each Reset takes.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
)

// snapshotter is implemented by every cache and memory controller.
type snapshotter interface{ Snapshot() string }

// controllerState renders every node's line records, cache array (residency,
// LRU order, clock) and home directory entries.
func controllerState(sys *core.System) string {
	var b strings.Builder
	for _, n := range sys.Nodes {
		fmt.Fprintf(&b, "node %d cache\n%s", n.ID, n.Cache.(snapshotter).Snapshot())
		fmt.Fprintf(&b, "node %d mem\n%s", n.ID, n.Mem.(snapshotter).Snapshot())
	}
	return b.String()
}

// firstDiff describes the first line at which two renderings differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < min(len(al), len(bl)); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n fresh:  %s\n leased: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(al), len(bl))
}

// mixWorkload loads and stores uniformly over blocks [0, blocks), so lines
// pass through every stable state and sharer sets grow.
type mixWorkload struct{ blocks int }

func (w mixWorkload) Next(rng *sim.RNG, _ network.NodeID) (sim.Time, coherence.Op) {
	return sim.Time(rng.Intn(20)), coherence.Op{
		Store: rng.Float64() < 0.4,
		Addr:  coherence.Addr(rng.Intn(w.blocks)),
	}
}

// addrRange returns the blocks [from, from+n).
func addrRange(from, n int) []coherence.Addr {
	out := make([]coherence.Addr, n)
	for i := range out {
		out[i] = coherence.Addr(from + i)
	}
	return out
}

// rollbackStep is one lease of the reused System.
type rollbackStep struct {
	name      string
	preheat   []coherence.Addr
	noRecycle bool
	// loop has the caller install preheat's blocks with PreheatOwned
	// itself, with Config.Preheat left empty.
	loop bool
	// extra blocks the caller installs with PreheatOwned after the lease.
	extra []coherence.Addr
	// inFlight stops the run with transactions outstanding instead of
	// measuring it to completion.
	inFlight bool
	// churn runs long enough over enough blocks that the line tables log
	// more re-created records than they keep, so the next lease must clear.
	churn    bool
	rollback bool // whether this lease should roll back
}

// rollbackSteps covers a warm set that repeats, is a proper prefix or a
// superset of the last one, is disjoint from it or empty, extra
// PreheatOwned calls after a lease, runs ended in flight, NoRecycle
// flipping between runs, and a run that outgrows the undo log. With 8
// nodes and 4 sets, node k's share of a warm range sits in set k%4, so 32
// blocks fill each node's set exactly; the run's 96 blocks then force
// evictions and writebacks of preheated blocks.
func rollbackSteps() []rollbackStep {
	all := addrRange(0, 32)
	return []rollbackStep{
		{name: "first", preheat: all},
		{name: "same+extra", preheat: all, extra: []coherence.Addr{200, 205}, rollback: true},
		{name: "same/in-flight", preheat: all, inFlight: true, rollback: true},
		{name: "same-after-in-flight", preheat: all, rollback: true},
		{name: "prefix", preheat: all[:16]},
		{name: "superset", preheat: all},
		{name: "same/norecycle", preheat: all, noRecycle: true, inFlight: true, rollback: true},
		{name: "same/recycle", preheat: all, rollback: true},
		{name: "disjoint", preheat: addrRange(64, 32)},
		{name: "empty+loop", preheat: all, loop: true, inFlight: true},
		{name: "after-loop", preheat: all},
		{name: "same-after-loop", preheat: all, extra: []coherence.Addr{201}, rollback: true},
		{name: "churn", preheat: all, churn: true, rollback: true},
		{name: "after-churn", preheat: all},
		{name: "empty", preheat: nil},
		{name: "last", preheat: all},
	}
}

// TestRollbackMatchesFresh: across every lease of rollbackSteps, on all four
// request-network protocols, with and without the checker, the reused
// System's controller state right after Reset equals a fresh System's, the
// two run identically (same metrics, same state at the end, same checker
// commits), and the leases that should roll back do.
func TestRollbackMatchesFresh(t *testing.T) {
	for _, p := range []core.Protocol{core.Snooping, core.Directory, core.BASH, core.BashPredictive} {
		for _, checker := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/checker=%t", p, checker), func(t *testing.T) {
				testRollbackSteps(t, p, checker)
			})
		}
	}
}

func testRollbackSteps(t *testing.T, p core.Protocol, checker bool) {
	const nodes = 8
	var reused *core.System
	for i, st := range rollbackSteps() {
		cfg := core.Config{
			Protocol:         p,
			Nodes:            nodes,
			BandwidthMBs:     []float64{400, 1600, 900}[i%3],
			Cache:            cache.Config{Sets: 4, Ways: 4},
			Seed:             uint64(5 + i),
			EnableChecker:    checker,
			WatchdogInterval: 50_000_000,
			NoRecycle:        st.noRecycle,
		}
		if !st.loop {
			cfg.Preheat = slices.Clone(st.preheat)
		}
		fresh := core.NewSystem(cfg)
		before := core.Rollbacks(reused)
		if reused == nil {
			reused = core.NewSystem(cfg)
		} else if err := reused.Reset(cfg); err != nil {
			t.Fatalf("%s: Reset: %v", st.name, err)
		}
		if rolled := core.Rollbacks(reused) > before; rolled != st.rollback {
			t.Errorf("%s: rolled back %t, want %t", st.name, rolled, st.rollback)
		}
		if f, r := controllerState(fresh), controllerState(reused); f != r {
			t.Fatalf("%s: state after Reset differs from a fresh System's at %s", st.name, firstDiff(f, r))
		}
		for _, sys := range []*core.System{fresh, reused} {
			if st.loop {
				for j, a := range st.preheat {
					sys.PreheatOwned(a, network.NodeID(j%nodes), uint64(j)+1)
				}
			}
			for j, a := range st.extra {
				sys.PreheatOwned(a, network.NodeID(j%nodes+3), 0x900+uint64(j))
			}
			blocks := 96
			if st.churn {
				blocks = 4096
			}
			sys.AttachWorkload(func(network.NodeID) core.Workload { return mixWorkload{blocks: blocks} })
		}
		if st.churn {
			if mf, mr := fresh.Measure(300, 24000), reused.Measure(300, 24000); mf != mr {
				t.Errorf("%s: metrics differ:\n fresh:  %+v\n leased: %+v", st.name, mf, mr)
			}
		} else if st.inFlight {
			for _, sys := range []*core.System{fresh, reused} {
				sys.Start()
				sys.Kernel.RunUntil(func() bool { return sys.TotalOps() >= 700 })
			}
			if fresh.Kernel.Now() != reused.Kernel.Now() || fresh.CacheStats() != reused.CacheStats() {
				t.Errorf("%s: in-flight runs differ: fresh at %d %+v, leased at %d %+v", st.name,
					fresh.Kernel.Now(), fresh.CacheStats(), reused.Kernel.Now(), reused.CacheStats())
			}
		} else if mf, mr := fresh.Measure(300, 900), reused.Measure(300, 900); mf != mr {
			t.Errorf("%s: metrics differ:\n fresh:  %+v\n leased: %+v", st.name, mf, mr)
		}
		if f, r := controllerState(fresh), controllerState(reused); f != r {
			t.Fatalf("%s: state after the run differs at %s", st.name, firstDiff(f, r))
		}
		if checker && (fresh.Checker.WriteCommits != reused.Checker.WriteCommits ||
			fresh.Checker.ReadCommits != reused.Checker.ReadCommits) {
			t.Errorf("%s: checker commits differ: fresh %d/%d, leased %d/%d", st.name,
				fresh.Checker.WriteCommits, fresh.Checker.ReadCommits,
				reused.Checker.WriteCommits, reused.Checker.ReadCommits)
		}
	}
}

// TestRollbackPoolDefaultGeometry: on the paper's 16-node, 16384-set
// configuration, a pooled lease that repeats the warm set matches a fresh
// System's state and metrics, for a warm set of locks and for a larger
// synthetic one whose run evicts nothing.
func TestRollbackPoolDefaultGeometry(t *testing.T) {
	pool := core.NewPool()
	for i, warm := range [][]coherence.Addr{addrRange(0, 2048), addrRange(0, 2048), addrRange(4096, 8192), addrRange(4096, 8192)} {
		cfg := core.Config{Protocol: core.BASH, Nodes: 16, BandwidthMBs: 1600, Seed: uint64(11 + i), Preheat: warm}
		fresh := core.NewSystem(cfg)
		leased := pool.Get(cfg)
		if f, r := controllerState(fresh), controllerState(leased); f != r {
			t.Fatalf("lease %d: state differs at %s", i, firstDiff(f, r))
		}
		wl := mixWorkload{blocks: len(warm) + 4096}
		for _, sys := range []*core.System{fresh, leased} {
			sys.AttachWorkload(func(network.NodeID) core.Workload { return wl })
		}
		if mf, mr := fresh.Measure(500, 2000), leased.Measure(500, 2000); mf != mr {
			t.Errorf("lease %d: metrics differ:\n fresh:  %+v\n leased: %+v", i, mf, mr)
		}
		pool.Put(leased)
	}
}

// TestResetSeesWarmSetChangedInPlace: a caller that changes its warm-set
// slice in place and passes it again gets a clearing Reset that installs
// the new blocks, not a rollback to the old ones; passing the same,
// unchanged slice again rolls back.
func TestResetSeesWarmSetChangedInPlace(t *testing.T) {
	warm := addrRange(0, 64)
	cfg := core.Config{Protocol: core.BASH, Nodes: 8, BandwidthMBs: 1600, Cache: cache.Config{Sets: 16, Ways: 4}, Seed: 3, Preheat: warm}
	sys := core.NewSystem(cfg)
	for i := range warm {
		warm[i] += 1000
	}
	before := core.Rollbacks(sys)
	if err := sys.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if core.Rollbacks(sys) != before {
		t.Fatal("Reset rolled back to a warm set the caller has since changed")
	}
	fresh := core.NewSystem(core.Config{Protocol: core.BASH, Nodes: 8, BandwidthMBs: 1600, Cache: cache.Config{Sets: 16, Ways: 4}, Seed: 3, Preheat: addrRange(1000, 64)})
	if f, r := controllerState(fresh), controllerState(sys); f != r {
		t.Fatalf("state differs from a fresh System's at %s", firstDiff(f, r))
	}
	if err := sys.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if core.Rollbacks(sys) != before+1 {
		t.Fatal("Reset with the unchanged warm set did not roll back")
	}
}
