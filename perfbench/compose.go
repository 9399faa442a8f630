package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cellstore"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cellWatchdog is the experiments package's per-cell watchdog default. The
// traced composition must configure cells exactly as the funnel does; the
// exact-metrics check against untraced passes catches any drift.
const cellWatchdog sim.Time = 500_000_000

// simCounts are the simulator counters a composed cell exposes beyond its
// Metrics.
type simCounts struct {
	events    uint64 // Kernel.Fired delta over Measure
	cache     coherence.CacheStats
	measureNs time.Duration
}

// composeCell simulates c through the same public calls the experiments
// cell funnel makes (lease, preheat, attach, Measure, store Put) and
// records a span around each under parent. st may be nil to skip the
// store write.
func composeCell(tr *tracer, parent, sweep int, pool *core.Pool, st *cellstore.Store,
	key string, c experiments.Cell) (core.Metrics, simCounts, error) {

	warm, measure := c.Warm, c.Measure
	if c.Nodes > 16 {
		scale := uint64(c.Nodes / 16)
		warm *= scale
		measure *= scale
	}
	cfg := core.Config{
		Protocol: c.Protocol, Nodes: c.Nodes, BandwidthMBs: c.BandwidthMBs,
		BroadcastCost: c.BroadcastCost, Seed: c.Seed, WatchdogInterval: cellWatchdog,
	}
	cfg.Adaptive.ThresholdPercent = c.Threshold
	cfg.Adaptive.Interval = c.Interval
	cfg.Adaptive.PolicyBits = c.PolicyBits

	var gen core.Workload
	var blocks []coherence.Addr
	if c.Workload == "" {
		lk := workload.NewLocking(128*c.Nodes, c.Think)
		gen, blocks = lk, lk.WarmBlocks()
	} else {
		w := workload.ByName(c.Workload)
		if w == nil {
			return core.Metrics{}, simCounts{}, fmt.Errorf("unknown workload %q", c.Workload)
		}
		gen, blocks = w, w.WarmBlocks()
	}

	t0 := time.Now()
	sys := pool.Get(cfg)
	t1 := time.Now()
	tr.add("core.Pool.Get", parent, sweep, t0, t1)
	for i, a := range blocks {
		sys.PreheatOwned(a, network.NodeID(i%c.Nodes), uint64(i)+1)
	}
	t2 := time.Now()
	tr.add("core.PreheatOwned", parent, sweep, t1, t2)
	sys.AttachWorkload(func(network.NodeID) core.Workload { return gen })
	t3 := time.Now()
	tr.add("core.AttachWorkload", parent, sweep, t2, t3)
	fired := sys.Kernel.Fired()
	m := sys.Measure(warm, measure)
	t4 := time.Now()
	tr.add("core.Measure", parent, sweep, t3, t4)
	counts := simCounts{events: sys.Kernel.Fired() - fired, cache: sys.CacheStats(), measureNs: t4.Sub(t3)}
	pool.Put(sys)
	if st != nil {
		t5 := time.Now()
		if err := st.Put(key, m); err != nil {
			return m, counts, fmt.Errorf("store put: %w", err)
		}
		tr.add("cellstore.Put", parent, sweep, t5, time.Now())
	}
	return m, counts, nil
}

// primeStore simulates cells through the composition on two goroutines,
// with a System pool of its own that is dropped afterwards, and writes
// each result to st under its key. The store then holds exactly what the
// cell funnel would have written, while the funnel's own System pool stays
// empty: a process that replays or serves a store has not simulated.
func primeStore(cells []experiments.Cell, st *cellstore.Store) ([]core.Metrics, error) {
	const workers = 2
	pool := core.NewPool()
	ms := make([]core.Metrics, len(cells))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cells); i += workers {
				m, _, err := composeCell(nil, 0, 0, pool, st, cells[i].Key(experiments.Options{}), cells[i])
				if err != nil {
					errs[w] = fmt.Errorf("cell %d: %w", i, err)
					return
				}
				ms[i] = m
			}
		}(w)
	}
	wg.Wait()
	return ms, errors.Join(errs...)
}

// tally verifies delivered cells against their references as passes
// complete, keeping only counts and the first mismatch: the benchmark's
// own memory must not grow with the number of passes, or the program's
// garbage collector would pace differently from run to run.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) check(got, want []core.Metrics) {
	bad, first := diffCells(got, want)
	t.attempted += len(want)
	t.failed += bad
	if bad > 0 && t.first == "" {
		t.first = first
	}
}

// diffCells compares delivered Metrics with their references cell by cell
// and returns how many differ, with a description of the first.
func diffCells(got, want []core.Metrics) (bad int, first string) {
	if len(got) != len(want) {
		return len(want), fmt.Sprintf("got %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			if bad == 0 {
				first = fmt.Sprintf("cell %d: got %+v, want %+v", i, got[i], want[i])
			}
			bad++
		}
	}
	return bad, first
}
