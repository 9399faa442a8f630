package core_test

// Allocation-budget gates for the simulation hot path. The pooled lifecycle
// (PR 2) removed construction costs from sweep cells; these tests pin the
// remaining claim: a *warmed* System executes operations with ZERO
// steady-state heap allocations. Every record the hot path materializes —
// protocol packets, network messages and scheduling tasks, line and
// transaction records, directory entries, pended queues — recycles through
// the system's shared free lists, and every per-event closure has been
// hoisted into a bound-once function or a free-listed task.
//
// "Warmed" is load-bearing: free lists and map buckets grow toward the
// run's high-water marks (which the protocol hard-bounds: one owner per
// block, one outstanding demand per processor) before allocation stops.
// The tests burn rounds until two consecutive measurement rounds allocate
// nothing, then assert the steady state holds across further rounds — so a
// regression that re-introduces a per-op or per-message allocation fails
// loudly, while one-time capacity growth does not flake.

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/workload"
)

// allocCell builds a warmed locking cell: geometry small enough that the
// cache arrays' lazily materialized sets are all touched during burn-in,
// with the lock pool sized to the array so no capacity evictions occur
// (eviction/writeback recycling has its own lifecycle tests).
func allocCell(p core.Protocol, nodes int) (*core.System, func()) {
	cfg := core.Config{
		Protocol:     p,
		Nodes:        nodes,
		BandwidthMBs: 1600,
		Cache:        cache.Config{Sets: 32, Ways: 4},
		Seed:         11,
	}
	sys := core.NewSystem(cfg)
	locks := 16 * nodes
	if locks > 128 {
		locks = 128
	}
	lk := workload.NewLocking(locks, 0)
	for i, a := range lk.WarmBlocks() {
		sys.PreheatOwned(a, network.NodeID(i%nodes), uint64(i)+1)
	}
	sys.AttachWorkload(func(network.NodeID) core.Workload { return lk })
	sys.Start()
	target := uint64(0)
	cond := func() bool { return sys.TotalOps() >= target }
	round := uint64(200 * nodes)
	return sys, func() {
		target += round
		sys.Kernel.RunUntil(cond)
	}
}

// TestZeroSteadyStateAllocs: snooping, directory and BASH execute a warmed
// 4-, 16- and 64-node System with zero steady-state heap allocations per
// operation, and a drained run leaks no packets.
func TestZeroSteadyStateAllocs(t *testing.T) {
	for _, p := range []core.Protocol{core.Snooping, core.Directory, core.BASH} {
		for _, nodes := range []int{4, 16, 64} {
			if nodes > 16 && testing.Short() {
				continue
			}
			t.Run(fmt.Sprintf("%s/%dnodes", p, nodes), func(t *testing.T) {
				sys, run := allocCell(p, nodes)

				// Burn in until the free lists and buckets reach their
				// high-water marks: two consecutive all-zero rounds.
				zeros := 0
				for i := 0; i < 25 && zeros < 2; i++ {
					if testing.AllocsPerRun(1, run) == 0 {
						zeros++
					} else {
						zeros = 0
					}
				}
				if zeros < 2 {
					t.Fatalf("hot path never became allocation-free: free lists still growing after 25 burn-in rounds")
				}

				// The steady state must hold.
				if got := testing.AllocsPerRun(5, run); got != 0 {
					t.Errorf("warmed %s %d-node System allocates %.2f times per round, want 0", p, nodes, got)
				}

				// And a drained run releases every packet it allocated.
				sys.Quiesce()
				if live := sys.Recycler().Live(); live != 0 {
					t.Errorf("quiesced system leaks %d packets", live)
				}
			})
		}
	}
}

// TestZeroSteadyStateAllocsPooledReuse: the warmed capacity survives
// System.Reset — a pooled System re-seeded for a new run reaches the
// zero-allocation steady state again (its free lists were drained, not
// freed), and with recycling disabled the same reused System allocates on
// every round, which is what the escape hatch is for.
func TestZeroSteadyStateAllocsPooledReuse(t *testing.T) {
	cfg := core.Config{
		Protocol:     core.BASH,
		Nodes:        16,
		BandwidthMBs: 1600,
		Cache:        cache.Config{Sets: 32, Ways: 4},
		Seed:         11,
	}
	sys := core.NewSystem(cfg)
	runCell := func(seed uint64, noRecycle bool) float64 {
		c := cfg
		c.Seed = seed
		c.NoRecycle = noRecycle
		if err := sys.Reset(c); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		lk := workload.NewLocking(128, 0)
		for i, a := range lk.WarmBlocks() {
			sys.PreheatOwned(a, network.NodeID(i%16), uint64(i)+1)
		}
		sys.AttachWorkload(func(network.NodeID) core.Workload { return lk })
		sys.Start()
		target := uint64(0)
		cond := func() bool { return sys.TotalOps() >= target }
		run := func() {
			target += 2000
			sys.Kernel.RunUntil(cond)
		}
		zeros := 0
		for i := 0; i < 25 && zeros < 2; i++ {
			if testing.AllocsPerRun(1, run) == 0 {
				zeros++
			} else {
				zeros = 0
			}
		}
		return testing.AllocsPerRun(3, run)
	}

	// First run warms the free lists; subsequent re-seeded runs must reach
	// zero again (and faster, since capacity was retained).
	for i, seed := range []uint64{11, 23, 42} {
		if got := runCell(seed, false); got != 0 {
			t.Errorf("reused run %d (seed %d) allocates %.2f per round, want 0", i, seed, got)
		}
	}
	// The NoRecycle escape hatch really does allocate every round.
	if got := runCell(99, true); got == 0 {
		t.Error("NoRecycle run reported zero allocations; the escape hatch is not disabling the free lists")
	}
}

// lockDriver drives every node of a System through lock acquires without
// Processors, whose construction in AttachWorkload allocates: each node
// stores to a fixed stride of warm blocks, issuing its next store from the
// previous one's completion through callbacks bound once.
type lockDriver struct {
	sys   *core.System
	locks []coherence.Addr
	next  []int
	issue []func()
	done  []func()
	ops   uint64
	stop  bool
}

func newLockDriver(sys *core.System, locks []coherence.Addr) *lockDriver {
	d := &lockDriver{sys: sys, locks: locks}
	n := len(sys.Nodes)
	d.next = make([]int, n)
	d.issue = make([]func(), n)
	d.done = make([]func(), n)
	for i := range sys.Nodes {
		d.issue[i] = func() {
			if !d.stop {
				op := coherence.Op{Store: true, Addr: d.locks[d.next[i]]}
				d.sys.Nodes[i].Cache.Access(op, d.done[i])
			}
		}
		d.done[i] = func() {
			d.ops++
			d.next[i] = (d.next[i] + 7*i + 5) % len(d.locks)
			d.sys.Kernel.Schedule(3, d.issue[i])
		}
	}
	return d
}

// run starts every node, stops issuing once ops stores completed and
// drains the System. A run cut off in flight would leave packets for the
// next Reset to drop to the garbage collector, and the run after it would
// allocate their replacements.
func (d *lockDriver) run(ops uint64) {
	d.stop = false
	d.ops = 0
	for i := range d.next {
		d.next[i] = 3 * i % len(d.locks)
		d.issue[i]()
	}
	d.sys.Kernel.RunUntil(func() bool { return d.ops >= ops })
	d.stop = true
	d.sys.Quiesce()
}

// TestZeroSteadyStateAllocsRollback: a warmed pooled System leased again
// with the warm set it already holds rolls back to it and then runs, and
// the Reset plus the run allocate nothing.
func TestZeroSteadyStateAllocsRollback(t *testing.T) {
	for _, p := range []core.Protocol{core.Snooping, core.Directory, core.BASH} {
		t.Run(p.String(), func(t *testing.T) {
			lk := workload.NewLocking(256, 0)
			cfg := core.Config{
				Protocol:     p,
				Nodes:        16,
				BandwidthMBs: 1600,
				Cache:        cache.Config{Sets: 64, Ways: 4},
				Seed:         11,
				Preheat:      lk.WarmBlocks(),
			}
			sys := core.NewSystem(cfg)
			drv := newLockDriver(sys, cfg.Preheat)
			lease := func() {
				if err := sys.Reset(cfg); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				drv.run(3000)
			}
			zeros := 0
			for i := 0; i < 25 && zeros < 2; i++ {
				if testing.AllocsPerRun(1, lease) == 0 {
					zeros++
				} else {
					zeros = 0
				}
			}
			if got := testing.AllocsPerRun(5, lease); got != 0 {
				t.Errorf("rolled-back %s lease allocates %.2f times per Reset and run, want 0", p, got)
			}
			if core.Rollbacks(sys) == 0 {
				t.Error("no Reset rolled back")
			}
		})
	}
}

// TestZeroSteadyStateAllocsDeferrals: under heavy same-block contention in
// a cache far smaller than the lock pool, line records defer foreign
// requests and homes park work behind writebacks, so deferral and waiting
// lists are handed out throughout the measured rounds; they come from the
// Recycler's pools, and the warmed System still allocates nothing.
func TestZeroSteadyStateAllocsDeferrals(t *testing.T) {
	for _, p := range []core.Protocol{core.Snooping, core.Directory, core.BASH} {
		t.Run(p.String(), func(t *testing.T) {
			sys := core.NewSystem(core.Config{
				Protocol:     p,
				Nodes:        16,
				BandwidthMBs: 1600,
				Cache:        cache.Config{Sets: 4, Ways: 2},
				Seed:         11,
			})
			lk := workload.NewLocking(24, 0)
			sys.AttachWorkload(func(network.NodeID) core.Workload { return lk })
			sys.Start()
			target := uint64(0)
			cond := func() bool { return sys.TotalOps() >= target }
			run := func() {
				target += 2000
				sys.Kernel.RunUntil(cond)
			}
			zeros := 0
			for i := 0; i < 25 && zeros < 2; i++ {
				if testing.AllocsPerRun(1, run) == 0 {
					zeros++
				} else {
					zeros = 0
				}
			}
			if zeros < 2 {
				t.Fatal("hot path never became allocation-free: free lists still growing after 25 burn-in rounds")
			}
			rec := sys.Recycler()
			defers, waits := rec.DeferLists, rec.WaitLists
			if got := testing.AllocsPerRun(5, run); got != 0 {
				t.Errorf("warmed contended %s System allocates %.2f times per round, want 0", p, got)
			}
			t.Logf("measured window: %d deferral lists, %d waiting lists", rec.DeferLists-defers, rec.WaitLists-waits)
			if rec.DeferLists == defers {
				t.Error("no deferral list was handed out in the measured window; the config does not exercise deferral")
			}
			if rec.WaitLists == waits {
				t.Error("no waiting list was handed out in the measured window; the config does not exercise writeback waits")
			}
		})
	}
}
