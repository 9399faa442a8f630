package bashsim_test

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its artifact through the experiment harness at
// Quick scale and logs the rows/series; `go run ./cmd/bashsim -scale full`
// produces the EXPERIMENTS.md configurations. The benchmark metric is the
// wall time to regenerate the artifact; custom metrics report simulated
// throughput where meaningful.

import (
	"testing"

	bashsim "repro"
)

// BenchmarkKernelScheduleStep measures the event kernel's hot path: 64
// schedule/step pairs per iteration against a warm queue, with zero
// steady-state allocations. "short" schedules every event under 7 ns
// ahead, all in the kernel's time-wheel near tier; "measured-mix" uses the
// delay mix the simulator schedules (kernelDelayMix), so a few events per
// iteration take the far-tier heap.
func BenchmarkKernelScheduleStep(b *testing.B) {
	run := func(b *testing.B, delay func(j int) bashsim.Time) {
		k := bashsim.NewKernel()
		fn := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				k.Schedule(delay(j), fn)
			}
			for j := 0; j < 64; j++ {
				k.Step()
			}
		}
	}
	b.Run("short", func(b *testing.B) {
		run(b, func(j int) bashsim.Time { return bashsim.Time(j % 7) })
	})
	b.Run("measured-mix", func(b *testing.B) {
		run(b, func(j int) bashsim.Time { return kernelDelayMix[j] })
	})
}

// kernelDelayMix is 64 schedule delays in the proportions the quick fig10
// and fig11 sweeps produce: 46 under 64 ns (72%), 15 from 64 to 1,023 ns
// (23%), and 3 from 1,024 ns to about 4 µs (5%), which are at least the
// kernel's 1,024 ns wheel span ahead and so go to its far tier. The classes
// are interleaved by a fixed permutation.
var kernelDelayMix = func() (d [64]bashsim.Time) {
	for j := range d {
		var v bashsim.Time
		switch {
		case j < 46:
			v = bashsim.Time(j * 41 % 64)
		case j < 61:
			v = 64 + bashsim.Time(j-46)*61
		default:
			v = 1024 + bashsim.Time(j-61)*1500
		}
		d[j*29%64] = v
	}
	return d
}()

// BenchmarkRunnerSweep measures the orchestration layer itself: a 32-shard
// sweep of small independent event-kernel workloads per iteration, fanned
// out and folded deterministically. The per-job cost is dominated by the
// simulated work, so this bounds the runner's dispatch+fold overhead.
func BenchmarkRunnerSweep(b *testing.B) {
	seeds := bashsim.ShardSeeds(7, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fired, err := bashsim.ParallelMap(len(seeds), bashsim.RunnerOptions{},
			func(j int) (uint64, error) {
				k := bashsim.NewKernel()
				var tick func()
				n := bashsim.Time(seeds[j] % 7)
				tick = func() {
					if k.Fired() < 512 {
						k.Schedule(1+n, tick)
					}
				}
				k.Schedule(0, tick)
				k.Drain()
				return k.Fired(), nil
			})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fired {
			if f == 0 {
				b.Fatal("empty shard")
			}
		}
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// Drop the cross-figure cell memo so every iteration simulates;
		// without this, iterations after the first would measure cache
		// lookups and TSV rendering instead of simulation.
		b.StopTimer()
		bashsim.ResetExperimentMemo()
		b.StartTimer()
		arts, err := bashsim.RunExperiment(id, bashsim.ExperimentOptions{Scale: bashsim.Quick})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, a := range arts {
				b.Log("\n" + a.TSV())
			}
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: performance vs. available bandwidth
// for the locking microbenchmark.
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2 regenerates Figure 2: queueing delay vs. utilization of the
// closed queueing model.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Figure 3: the utilization counter trace.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4: the six protocol transaction
// walkthroughs.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkTable1 regenerates Table 1: protocol complexity counts.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig5 regenerates Figure 5: normalized performance vs. bandwidth.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6: endpoint utilization vs. bandwidth.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7: utilization threshold sensitivity.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8: performance per processor vs. system
// size.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9: miss latency vs. think time.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10: the six workload panels at 16
// processors.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11: Figure 10 with 4x broadcast cost.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12: per-workload comparison at 1600
// MB/s with 4x broadcast cost.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkStability regenerates the Section 2.1 probabilistic-vs-switch
// comparison (the all-or-nothing mechanism oscillates).
func BenchmarkStability(b *testing.B) { benchExperiment(b, "stability") }

// BenchmarkAblation regenerates the design-choice ablations (static masks,
// sampling interval, policy width).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkSystemReuse measures what the pooled simulation lifecycle saves:
// one complete sweep cell (preheat, warm-up, measurement) per iteration on
// the paper's default 16-node configuration, constructing a fresh System
// each time versus leasing a re-seeded one from a SystemPool. Construction
// dominates short cells — a fresh 16-node System allocates the kernel, 32
// bandwidth channels, and per node a 16384-set cache array table, line and
// directory maps, histograms and an adaptive unit — all of which a pooled
// lease retains. Results are byte-identical either way (the determinism
// tests assert it); run with -benchmem to see the allocation gap.
//
// The fresh and pooled cells preheat with a PreheatOwned loop after the
// lease, so every pooled lease clears the previous run and installs the
// warm set again. The pooled-preheat cells pass the warm set as
// Config.Preheat instead, so each lease after the first rolls back what
// the previous run touched: locking is the same cell as pooled, and oltp
// has a 16,384-block warm set.
func BenchmarkSystemReuse(b *testing.B) {
	const nodes = 16
	cfg := bashsim.Config{
		Protocol:     bashsim.BASH,
		Nodes:        nodes,
		BandwidthMBs: 1600,
		Seed:         11,
	}
	cell := func(sys *bashsim.System) {
		lk := bashsim.NewLockingWorkload(128*nodes, 0)
		for i, a := range lk.WarmBlocks() {
			sys.PreheatOwned(a, bashsim.NodeID(i%nodes), uint64(i)+1)
		}
		sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return lk })
		if m := sys.Measure(200, 600); m.Ops == 0 {
			b.Fatal("cell measured no operations")
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cell(bashsim.NewSystem(cfg))
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := bashsim.NewSystemPool()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := pool.Get(cfg)
			cell(sys)
			pool.Put(sys)
		}
	})
	preheated := func(b *testing.B, gen bashsim.WorkloadGenerator) {
		c := cfg
		c.Preheat = gen.WarmBlocks()
		pool := bashsim.NewSystemPool()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := pool.Get(c)
			sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return gen })
			if m := sys.Measure(200, 600); m.Ops == 0 {
				b.Fatal("cell measured no operations")
			}
			pool.Put(sys)
		}
	}
	b.Run("pooled-preheat/locking", func(b *testing.B) {
		preheated(b, bashsim.NewLockingWorkload(128*nodes, 0))
	})
	b.Run("pooled-preheat/oltp", func(b *testing.B) { preheated(b, bashsim.OLTP()) })
}

// BenchmarkSteadyStateOps measures the per-operation cost of a *warmed*
// System — the paper-sweep inner loop after the pooled lifecycle and the
// reset-aware free lists have done their work. Geometry is sized so the
// whole working set warms quickly; after warm-up every packet, message,
// line/txn record and directory entry recycles, so -benchmem reports zero
// allocations per operation for all three protocols. The NoRecycle
// sub-benchmarks run the identical simulation with the free lists disabled
// — the delta is what the recycling buys. events/op is kernel events fired
// per simulated operation (the perfbench sim.events_per_op quantity), an
// exact count that tracks the event cost of the hot path per commit.
func BenchmarkSteadyStateOps(b *testing.B) {
	const nodes = 16
	run := func(b *testing.B, p bashsim.Protocol, noRecycle bool) {
		sys := bashsim.NewSystem(bashsim.Config{
			Protocol:     p,
			Nodes:        nodes,
			BandwidthMBs: 1600,
			Cache:        bashsim.CacheConfig{Sets: 32, Ways: 4},
			Seed:         11,
			NoRecycle:    noRecycle,
		})
		lk := bashsim.NewLockingWorkload(8*nodes, 0)
		for i, a := range lk.WarmBlocks() {
			sys.PreheatOwned(a, bashsim.NodeID(i%nodes), uint64(i)+1)
		}
		sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return lk })
		sys.Start()
		target := sys.TotalOps() + 20000 // warm free lists and map buckets
		cond := func() bool { return sys.TotalOps() >= target }
		sys.Kernel.RunUntil(cond)
		fired, ops := sys.Kernel.Fired(), sys.TotalOps()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target += 100
			sys.Kernel.RunUntil(cond)
		}
		b.StopTimer()
		b.ReportMetric(100, "simops/op")
		b.ReportMetric(float64(sys.Kernel.Fired()-fired)/float64(sys.TotalOps()-ops), "events/op")
	}
	for _, p := range []bashsim.Protocol{bashsim.Snooping, bashsim.Directory, bashsim.BASH} {
		b.Run(p.String(), func(b *testing.B) { run(b, p, false) })
		b.Run(p.String()+"-norecycle", func(b *testing.B) { run(b, p, true) })
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// lock-acquire transactions per wall second on a 16-node BASH system.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const nodes = 16
	sys := bashsim.NewSystem(bashsim.Config{
		Protocol:     bashsim.BASH,
		Nodes:        nodes,
		BandwidthMBs: 1600,
	})
	lk := bashsim.NewLockingWorkload(128*nodes, 0)
	for i, a := range lk.WarmBlocks() {
		sys.PreheatOwned(a, bashsim.NodeID(i%nodes), uint64(i)+1)
	}
	sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return lk })
	sys.Start()
	b.ResetTimer()
	target := sys.TotalOps()
	for i := 0; i < b.N; i++ {
		target += 100
		sys.Kernel.RunUntil(func() bool { return sys.TotalOps() >= target })
	}
	b.StopTimer()
	b.ReportMetric(100, "txns/op")
}
