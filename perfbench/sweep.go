package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/experiments"
)

// funnelCounts are one untraced pass's deltas of the experiments package
// counters and of its cell store's counters.
type funnelCounts struct {
	sims, memoHits, fetched uint64
	hits, misses, writes    uint64
}

func readFunnel(st *cellstore.Store) funnelCounts {
	c := funnelCounts{
		sims: experiments.Simulations(), memoHits: experiments.MemoHits(), fetched: experiments.Fetched(),
	}
	if st != nil {
		c.hits, c.misses, c.writes = st.Counters()
	}
	return c
}

func (a funnelCounts) sub(b funnelCounts) funnelCounts {
	return funnelCounts{
		a.sims - b.sims, a.memoHits - b.memoHits, a.fetched - b.fetched,
		a.hits - b.hits, a.misses - b.misses, a.writes - b.writes,
	}
}

// simTotals sums one traced sweep-cold pass's simulator counters.
type simTotals struct {
	cells, bashCells             int
	events, ops, retries, nacks  uint64
	measureNs                    time.Duration
	bytes, ctrlBytes             float64
	util, missLat, bcast         float64
	loads, misses, sharingMisses uint64
}

func (t *simTotals) add(m core.Metrics, c simCounts) {
	t.cells++
	t.events += c.events
	t.ops += m.Ops
	t.measureNs += c.measureNs
	t.retries += m.Retries
	t.nacks += m.Nacks
	t.bytes += m.BytesPerOp * float64(m.Ops)
	t.ctrlBytes += m.ControlBytesPerOp * float64(m.Ops)
	t.util += m.Utilization
	t.missLat += m.AvgMissLatency
	if m.Protocol == core.BASH {
		t.bashCells++
		t.bcast += m.BroadcastFraction
	}
	t.loads += c.cache.Loads + c.cache.Stores
	t.misses += c.cache.Misses
	t.sharingMisses += c.cache.SharingMisses
}

// exact drops the host-time field, leaving what must repeat bit for bit.
func (t simTotals) exact() simTotals {
	t.measureNs = 0
	return t
}

// sweep is sweep-cold (every cell simulated into a fresh store) or
// sweep-warm (every cell replayed from a store primed during setup).
type sweep struct {
	warm bool
	work string
	tr   *tracer
	grid []experiments.Cell
	opt  experiments.Options

	primed string         // sweep-warm: the primed store
	ref    []core.Metrics // sweep-warm: priming results; sweep-cold: the composition
	pool   *core.Pool     // the traced composition's own System pool

	first   []core.Metrics   // the first pass's cells, for bash_vs_best
	pending [][]core.Metrics // sweep-cold passes delivered before ref is known
	cells   tally
	counts  []funnelCounts // the first untraced pass's counter deltas, then any that differ
	sims    []simTotals    // traced sweep-cold passes
	errs    []string
}

func newSweep(seed uint64, work string, tr *tracer, warm bool) *sweep {
	return &sweep{
		warm: warm, work: work, tr: tr, grid: sweepGrid(seed),
		opt:  experiments.Options{Parallel: 1},
		pool: core.NewPool(),
	}
}

// setup for sweep-cold opens a store and warms the cell funnel's System
// pool with one cell per structural shape (protocol x node count); for
// sweep-warm it primes a fresh store with the whole grid on both cores.
func (s *sweep) setup() error {
	experiments.ResetMemo()
	if s.warm {
		if s.primed != "" {
			os.RemoveAll(s.primed)
		}
		dir, err := os.MkdirTemp(s.work, "primed-")
		if err != nil {
			return err
		}
		s.primed = dir
		ms, err := primeStore(s.grid, cellstore.For(dir))
		if err != nil {
			return fmt.Errorf("prime: %w", err)
		}
		if s.ref == nil {
			s.ref = ms
		} else if bad, first := diffCells(ms, s.ref); bad > 0 {
			s.errs = append(s.errs, fmt.Sprintf("priming is not deterministic: %d cells differ between setups; first: %s", bad, first))
		}
		experiments.ResetMemo()
		return nil
	}
	dir, err := os.MkdirTemp(s.work, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	shapes := append(append([]experiments.Cell{}, s.grid[:3]...), s.grid[len(s.grid)-3:]...)
	o := s.opt
	o.CacheDir = dir
	if _, err := experiments.RunCells(o, shapes); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if s.tr != nil {
		for _, c := range shapes {
			if _, _, err := composeCell(nil, 0, 0, s.pool, nil, "", c); err != nil {
				return fmt.Errorf("warm-up composition: %w", err)
			}
		}
	}
	experiments.ResetMemo()
	return nil
}

func (s *sweep) pass(traced bool, sweep int) (passStats, error) {
	experiments.ResetMemo()
	dir := s.primed
	if !s.warm {
		var err error
		if dir, err = os.MkdirTemp(s.work, "pass-"); err != nil {
			return passStats{}, err
		}
		defer os.RemoveAll(dir)
	}
	st := cellstore.For(dir)
	if traced {
		return s.tracedPass(st, sweep)
	}
	o := s.opt
	o.CacheDir = dir
	// The cells run serially, so each Progress call marks one cell's end.
	// Only sweep-cold's few long passes keep per-cell times; sweep-warm
	// makes thousands of passes and is timed in blocks.
	var mu sync.Mutex
	var ends []time.Time
	if !s.warm {
		ends = make([]time.Time, 0, len(s.grid))
		o.Progress = func(done, total int) {
			t := time.Now()
			mu.Lock()
			ends = append(ends, t)
			mu.Unlock()
		}
	}
	before := readFunnel(st)
	sw := startWatch()
	ms, err := experiments.RunCells(o, s.grid)
	ps := sw.stop(len(s.grid))
	mu.Lock()
	if len(ends) == len(s.grid) {
		prev := sw.t0
		for _, e := range ends {
			ps.perCell = append(ps.perCell, e.Sub(prev))
			prev = e
		}
	}
	mu.Unlock()
	s.tr.add("experiments.RunCells", 0, sweep, sw.t0, sw.t0.Add(ps.wall))
	if err != nil {
		return ps, err
	}
	counts := readFunnel(st).sub(before)
	if len(s.counts) == 0 || counts != s.counts[0] {
		s.counts = append(s.counts, counts)
	}
	s.deliver(ms)
	return ps, nil
}

// deliver verifies one pass's cells, or holds them until sweep-cold's
// reference exists.
func (s *sweep) deliver(ms []core.Metrics) {
	if s.first == nil {
		s.first = ms
	}
	if s.ref == nil {
		s.pending = append(s.pending, ms)
		return
	}
	s.cells.check(ms, s.ref)
}

// tracedPass delivers the grid through the public calls the funnel makes,
// one span per call: for sweep-cold lease, preheat, attach, Measure and
// store Put; for sweep-warm the key and the store Get.
func (s *sweep) tracedPass(st *cellstore.Store, sweep int) (passStats, error) {
	ms := make([]core.Metrics, len(s.grid))
	var tot simTotals
	t0 := time.Now()
	sw := startWatch()
	root := s.tr.reserve("sweep", 0, sweep)
	for i, c := range s.grid {
		cs := s.tr.reserve("cell", root, sweep)
		c0 := time.Now()
		key := c.Key(s.opt)
		c1 := time.Now()
		s.tr.add("experiments.Cell.Key", cs, sweep, c0, c1)
		if s.warm {
			if !st.Get(key, &ms[i]) {
				s.errs = append(s.errs, fmt.Sprintf("traced pass %d: cell %d missing from the primed store", sweep, i))
			}
			s.tr.add("cellstore.Get", cs, sweep, c1, time.Now())
		} else {
			m, counts, err := composeCell(s.tr, cs, sweep, s.pool, st, key, c)
			if err != nil {
				return passStats{}, err
			}
			ms[i] = m
			tot.add(m, counts)
		}
		s.tr.fill(cs, c0, time.Now())
	}
	s.tr.fill(root, t0, time.Now())
	ps := sw.stop(len(s.grid))
	if !s.warm {
		if s.ref == nil {
			s.ref = ms // the first traced composition is sweep-cold's reference
		}
		s.sims = append(s.sims, tot)
	}
	s.deliver(ms)
	return ps, nil
}

func (s *sweep) bashVsBest() float64 {
	return bashVsBest(s.first)
}

func (s *sweep) finish(c *checks, layers map[string]float64) {
	for _, e := range s.errs {
		c.expect(false, "%s", e)
	}
	if s.ref == nil {
		// An untraced sweep-cold run composes its reference now, after
		// the timed passes.
		s.ref = make([]core.Metrics, len(s.grid))
		for i, cell := range s.grid {
			m, _, err := composeCell(nil, 0, 0, s.pool, nil, "", cell)
			c.expect(err == nil, "reference composition of cell %d: %v", i, err)
			s.ref[i] = m
		}
	}
	for _, ms := range s.pending {
		s.cells.check(ms, s.ref)
	}
	c.cells(s.cells)

	n := uint64(len(s.grid))
	c.expect(len(s.counts) <= 1, "exact counts differ between untraced passes: %+v", s.counts)
	if len(s.counts) > 0 {
		f := s.counts[0]
		if s.warm {
			c.expect(f.sims == 0 && f.fetched == 0 && f.hits == n && f.misses == 0,
				"sweep-warm pass must replay every cell from the store and simulate none: %+v", f)
		} else {
			c.expect(f.sims == n && f.fetched == 0 && f.writes == n,
				"sweep-cold pass must simulate and store every cell: %+v (want %d)", f, n)
		}
		layers["experiments.sims"] = float64(f.sims)
		layers["experiments.memo_hits"] = float64(f.memoHits)
		layers["experiments.fetched"] = float64(f.fetched)
		layers["cellstore.hits"] = float64(f.hits)
		layers["cellstore.misses"] = float64(f.misses)
		layers["cellstore.writes"] = float64(f.writes)
	}
	if s.tr == nil {
		return
	}

	spans := s.tr.layers()
	perCell := func(name string) time.Duration {
		if l := spans[name]; l != nil {
			return l.meanTotal()
		}
		return 0
	}
	if s.warm {
		untraced := perCell("experiments.RunCells") / time.Duration(n)
		layers["cellstore.get_us"] = us(perCell("cellstore.Get"))
		layers["experiments.funnel_us_per_cell"] = us(untraced - perCell("cellstore.Get"))
		return
	}
	// experiments.funnel_us_per_cell stays 0 on sweep-cold: the funnel's
	// few microseconds per cell are far below the host's pass-to-pass
	// noise on 40 ms cells, so untraced minus traced time there is noise.
	// sweep-warm and fleet-fetch measure it.
	for i, t := range s.sims {
		c.expect(t.exact() == s.sims[0].exact(), "simulator counts differ between traced passes: pass %d %+v, first %+v", i, t.exact(), s.sims[0].exact())
	}
	var measure time.Duration
	for _, t := range s.sims {
		measure += t.measureNs
	}
	t := s.sims[0]
	layers["sim.events_per_op"] = float64(t.events) / float64(t.ops)
	layers["sim.ns_per_event"] = float64(measure.Nanoseconds()) / float64(t.events*uint64(len(s.sims)))
	layers["core.lease_ms"] = ms(perCell("core.Pool.Get"))
	layers["core.preheat_ms"] = ms(perCell("core.PreheatOwned"))
	layers["core.measure_ms"] = ms(perCell("core.Measure"))
	layers["core.sim_ops_per_s"] = float64(t.ops*uint64(len(s.sims))) / measure.Seconds()
	_, builds, _ := s.pool.Stats()
	layers["core.pool_builds"] = float64(builds)
	layers["network.bytes_per_op"] = t.bytes / float64(t.ops)
	layers["network.control_bytes_per_op"] = t.ctrlBytes / float64(t.ops)
	layers["network.utilization"] = t.util / float64(t.cells)
	layers["coherence.miss_latency_ns"] = t.missLat / float64(t.cells)
	layers["coherence.retries_per_op"] = float64(t.retries) / float64(t.ops)
	layers["coherence.nacks_per_op"] = float64(t.nacks) / float64(t.ops)
	layers["coherence.sharing_miss_frac"] = float64(t.sharingMisses) / float64(t.misses)
	layers["cache.miss_ratio"] = float64(t.misses) / float64(t.loads)
	layers["adaptive.broadcast_frac"] = t.bcast / float64(t.bashCells)
	layers["cellstore.put_us"] = us(perCell("cellstore.Put"))
}

func (s *sweep) close() {
	if s.primed != "" {
		os.RemoveAll(s.primed)
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
