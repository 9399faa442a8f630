package core

import (
	"testing"

	"repro/internal/network"
	"repro/internal/workload"
)

// measureCell runs one small locking cell on sys and returns its metrics.
func measureCell(sys *System) Metrics {
	nodes := sys.Net.Nodes()
	lk := workload.NewLocking(64*nodes, 0)
	for i, a := range lk.WarmBlocks() {
		sys.PreheatOwned(a, network.NodeID(i%nodes), uint64(i)+1)
	}
	sys.AttachWorkload(func(network.NodeID) Workload { return lk })
	return sys.Measure(300, 900)
}

// cellConfigs is a structurally varied set of per-run configurations that
// are pairwise pool-compatible per protocol.
func cellConfigs() []Config {
	return []Config{
		{Protocol: BASH, Nodes: 8, BandwidthMBs: 800, Seed: 11, WatchdogInterval: 500_000_000},
		{Protocol: BASH, Nodes: 8, BandwidthMBs: 4000, Seed: 23, WatchdogInterval: 500_000_000},
		{Protocol: Snooping, Nodes: 8, BandwidthMBs: 800, Seed: 11, WatchdogInterval: 500_000_000},
		{Protocol: Directory, Nodes: 8, BandwidthMBs: 800, Seed: 11, WatchdogInterval: 500_000_000},
		{Protocol: BASH, Nodes: 8, BandwidthMBs: 800, Seed: 11, JitterNs: 40, WatchdogInterval: 500_000_000},
	}
}

// TestResetMatchesFresh: a System reused via Reset produces exactly the
// metrics a freshly constructed System produces, across protocols, seeds,
// bandwidths and jitter — including when the reused System previously ran a
// *different* compatible configuration (stale-state leak detection).
func TestResetMatchesFresh(t *testing.T) {
	cfgs := cellConfigs()
	fresh := make([]Metrics, len(cfgs))
	for i, cfg := range cfgs {
		fresh[i] = measureCell(NewSystem(cfg))
	}
	// One reused System per protocol, cycled through its compatible cells
	// twice in different orders.
	reused := map[Protocol]*System{}
	lease := func(cfg Config) *System {
		s := reused[cfg.Protocol]
		if s == nil {
			s = NewSystem(cfg)
			reused[cfg.Protocol] = s
			return s
		}
		if err := s.Reset(cfg); err != nil {
			t.Fatalf("Reset(%+v): %v", cfg, err)
		}
		return s
	}
	for pass := 0; pass < 2; pass++ {
		for i := range cfgs {
			j := i
			if pass == 1 {
				j = len(cfgs) - 1 - i
			}
			if got := measureCell(lease(cfgs[j])); got != fresh[j] {
				t.Errorf("pass %d cfg %d: reused metrics differ:\n fresh:  %+v\n reused: %+v",
					pass, j, fresh[j], got)
			}
		}
	}
}

// TestResetStructuralMismatch: Reset refuses configs that change the
// allocation shape and leaves the System usable.
func TestResetStructuralMismatch(t *testing.T) {
	sys := NewSystem(Config{Protocol: BASH, Nodes: 8, WatchdogInterval: 500_000_000})
	for _, bad := range []Config{
		{Protocol: Snooping, Nodes: 8, WatchdogInterval: 500_000_000},        // protocol
		{Protocol: BASH, Nodes: 16, WatchdogInterval: 500_000_000},           // nodes
		{Protocol: BASH, Nodes: 8},                                           // watchdog presence
		{Protocol: BASH, Nodes: 8, EnableChecker: true, WatchdogInterval: 1}, // checker
		{Protocol: BASH, Nodes: 8, Predictor: true, WatchdogInterval: 1},     // predictor
	} {
		if err := sys.Reset(bad); err == nil {
			t.Errorf("Reset accepted structurally incompatible %+v", bad)
		}
	}
	// Still usable for a compatible config after the rejections.
	if err := sys.Reset(Config{Protocol: BASH, Nodes: 8, BandwidthMBs: 2000, WatchdogInterval: 500_000_000}); err != nil {
		t.Fatalf("compatible Reset failed: %v", err)
	}
	if m := measureCell(sys); m.Ops == 0 {
		t.Fatal("system unusable after rejected resets")
	}
}

// TestPoolReuse: the pool reuses compatible Systems, buckets incompatible
// ones separately, and leased runs reproduce fresh results.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	cfg := Config{Protocol: BASH, Nodes: 8, BandwidthMBs: 800, Seed: 11, WatchdogInterval: 500_000_000}
	want := measureCell(NewSystem(cfg))

	a := p.Get(cfg)
	if m := measureCell(a); m != want {
		t.Errorf("first lease: %+v != fresh %+v", m, want)
	}
	p.Put(a)
	b := p.Get(cfg)
	if a != b {
		t.Error("pool did not reuse the returned System")
	}
	if m := measureCell(b); m != want {
		t.Errorf("reused lease: %+v != fresh %+v", m, want)
	}
	p.Put(b)

	// A structurally different config must not receive the pooled System.
	c := p.Get(Config{Protocol: Snooping, Nodes: 8, WatchdogInterval: 500_000_000})
	if c == b {
		t.Error("pool handed a BASH system to a Snooping lease")
	}
	p.Put(c)

	gets, builds, puts := p.Stats()
	if gets != 3 || builds != 2 || puts != 3 {
		t.Errorf("stats = %d gets, %d builds, %d puts; want 3, 2, 3", gets, builds, puts)
	}
}

// TestResetReclaimsAbandonedRun: a System abandoned mid-run, with packets
// scheduled, parked and in flight, takes every packet back on Reset: Live
// reads 0 and the free list holds every packet the Recycler has allocated.
// The next run rebinds the same Processors and measures exactly what a
// fresh System does.
func TestResetReclaimsAbandonedRun(t *testing.T) {
	for _, p := range []Protocol{Snooping, Directory, BASH} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := Config{Protocol: p, Nodes: 8, BandwidthMBs: 800, Seed: 11, WatchdogInterval: 500_000_000}
			want := measureCell(NewSystem(cfg))

			sys := NewSystem(cfg)
			lk := workload.NewLocking(64*8, 0)
			for i, a := range lk.WarmBlocks() {
				sys.PreheatOwned(a, network.NodeID(i%8), uint64(i)+1)
			}
			sys.AttachWorkload(func(network.NodeID) Workload { return lk })
			sys.Start()
			sys.Kernel.RunUntil(func() bool { return sys.TotalOps() >= 500 })
			rec := sys.Recycler()
			if rec.Live() == 0 {
				t.Fatal("no packet was out when the run was abandoned")
			}
			procs := make([]*Processor, len(sys.Nodes))
			for i, n := range sys.Nodes {
				procs[i] = n.Proc
			}

			if err := sys.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			if live := rec.Live(); live != 0 {
				t.Errorf("Live = %d after Reset, want 0", live)
			}
			if free, made := uint64(rec.FreeLen()), rec.Gets-rec.Reuses; free != made {
				t.Errorf("%d of the %d packets allocated are free after Reset", free, made)
			}
			if m := measureCell(sys); m != want {
				t.Errorf("run after an abandoned one: %+v, fresh %+v", m, want)
			}
			for i, n := range sys.Nodes {
				if n.Proc != procs[i] {
					t.Errorf("node %d: AttachWorkload built a new Processor instead of rebinding its own", i)
				}
			}
		})
	}
}
