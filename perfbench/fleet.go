package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// Stated fleet parameters. The worker poll is the idle re-poll interval of
// both workers: a sweep's first grant waits up to one poll, so it must be
// small next to a pass (about 0.3 s); at the 500 ms default, pass times
// were bimodal. The cold worker runs two slots, one per core.
const (
	fleetPoll       = 10 * time.Millisecond
	fleetLeaseBatch = 4
	fleetSlots      = 2
	// fleetMaxCellsPerS sizes the primed pool: enough fresh cells for
	// every pass a run of the given length can make at up to this rate,
	// about 2.4 times the measured 491-546 cells/s, so the fleet path can
	// shed the half of its CPU that deflate-writer set-up and temp files
	// take. A faster fleet runs out of cells, and the run fails rather
	// than report a shortened measurement.
	fleetMaxCellsPerS = 1300
	// fleetRatioPasses is how many timed passes bash_vs_best covers, so
	// it does not depend on how many passes fit in the run.
	fleetRatioPasses = 4
)

// errExhausted ends the timed passes, and fails the run, when the primed
// pool is used up.
var errExhausted = errors.New("primed fleet cells exhausted")

// fleet is fleet-fetch: one process runs a coordinator on loopback TCP, a
// holder-only worker serving a primed store on a peer listener, and a cold
// worker with an empty store. Every timed pass sends cells the cold worker
// has never seen, so each one is granted, fetched directly from the
// holder, installed with PutRaw, pushed back to its ring owner, and
// posted as a result, while nothing is simulated.
type fleet struct {
	seed   uint64
	work   string
	tr     *tracer
	primed int // primed timed passes (pass 0 is the warm-up)

	cells [][]experiments.Cell
	ref   [][]core.Metrics

	holderDir, coldDir string
	coord              *dist.Coordinator
	ln                 net.Listener
	cancel             context.CancelFunc
	wg                 sync.WaitGroup
	workerErrs         chan error

	next     int            // next timed pass
	first    []core.Metrics // the first fleetRatioPasses passes' cells, for bash_vs_best
	passes   int            // timed passes delivered
	checked  tally
	counts   []funnelCounts // untraced passes whose counters broke the workload's intent
	stats0   dist.Stats
	stores0  funnelCounts // holder + cold store counters after setup
	started  time.Time
	rawGet   []time.Duration
	rawPut   []time.Duration
	rawBytes int
	errs     []string
}

func newFleet(seed uint64, work string, tr *tracer, budget time.Duration) *fleet {
	f := &fleet{seed: seed, work: work, tr: tr}
	f.primed = int(math.Ceil(budget.Seconds()*fleetMaxCellsPerS/float64(3*fleetPointsPerPass))) + 1
	for p := 0; p <= f.primed; p++ {
		f.cells = append(f.cells, fleetPass(seed, p))
	}
	return f
}

// setup primes a fresh holder store with every pass's cells (on both
// cores, see primeStore), starts the coordinator and both workers, waits for the holder's
// first advert, and sends the warm-up pass through the fleet.
func (f *fleet) setup() error {
	f.teardown()
	var err error
	if f.holderDir, err = os.MkdirTemp(f.work, "holder-"); err != nil {
		return err
	}
	if f.coldDir, err = os.MkdirTemp(f.work, "cold-"); err != nil {
		return err
	}
	var all []experiments.Cell
	for _, cs := range f.cells {
		all = append(all, cs...)
	}
	experiments.ResetMemo()
	ms, err := primeStore(all, cellstore.For(f.holderDir))
	if err != nil {
		return fmt.Errorf("prime: %w", err)
	}
	ref := make([][]core.Metrics, len(f.cells))
	for p := range f.cells {
		ref[p], ms = ms[:len(f.cells[p])], ms[len(f.cells[p]):]
	}
	if f.ref == nil {
		f.ref = ref
	} else {
		for p := range ref {
			if bad, first := diffCells(ref[p], f.ref[p]); bad > 0 {
				f.errs = append(f.errs, fmt.Sprintf("priming is not deterministic: pass %d: %s", p, first))
			}
		}
	}

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: f.coldDir})
	f.coord = dist.NewCoordinator(dist.CoordinatorOptions{LeaseBatch: fleetLeaseBatch})
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := f.coord.Serve(f.ln); err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: coordinator: %v\n", err)
		}
	}()
	url := "http://" + f.ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.workerErrs = make(chan error, 2)
	start := func(o dist.WorkerOptions) {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := dist.RunWorker(ctx, o); err != nil && !errors.Is(err, context.Canceled) {
				f.workerErrs <- fmt.Errorf("worker %s: %w", o.Name, err)
			}
		}()
	}
	start(dist.WorkerOptions{
		Coordinator: url, Name: "holder", Poll: fleetPoll, Wire: "binary",
		Kinds:    []string{"exchange.holder-only"},
		CacheDir: f.holderDir, PeerAddr: "127.0.0.1:0",
	})
	if err := f.await(func(s dist.Stats) bool { return s.Adverts > 0 }); err != nil {
		return fmt.Errorf("holder advert: %w", err)
	}
	start(dist.WorkerOptions{
		Coordinator: url, Name: "cold", Poll: fleetPoll, Wire: "binary", Slots: fleetSlots,
		CacheDir: f.coldDir,
	})
	got, err := experiments.RunCells(experiments.Options{Backend: f.coord}, f.cells[0])
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	if bad, first := diffCells(got, f.ref[0]); bad > 0 {
		f.errs = append(f.errs, "warm-up pass: "+first)
	}
	f.next = 1
	f.stats0 = f.coord.Stats()
	f.stores0 = f.storeCounts()
	return nil
}

// storeCounts sums the holder's and the cold worker's store counters.
func (f *fleet) storeCounts() funnelCounts {
	hh, hm, hw := cellstore.For(f.holderDir).Counters()
	ch, cm, cw := cellstore.For(f.coldDir).Counters()
	return funnelCounts{hits: hh + ch, misses: hm + cm, writes: hw + cw}
}

// await polls the coordinator's counters until cond holds.
func (f *fleet) await(cond func(dist.Stats) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond(f.coord.Stats()) {
		select {
		case err := <-f.workerErrs:
			return err
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// teardown stops the fleet and waits for every goroutine it started.
func (f *fleet) teardown() {
	if f.cancel != nil {
		f.cancel()
	}
	if f.ln != nil {
		f.ln.Close()
	}
	f.wg.Wait()
	f.cancel, f.ln = nil, nil
	for _, d := range []string{f.holderDir, f.coldDir} {
		if d != "" {
			os.RemoveAll(d)
		}
	}
}

func (f *fleet) close() { f.teardown() }

// timedBackend wraps the coordinator's Backend.Run in a span.
type timedBackend struct {
	inner       runner.Backend
	tr          *tracer
	parent, swp int
	id          int
	start       time.Time
}

func (b *timedBackend) Run(jobs []runner.Job, opt runner.Options) ([][]byte, error) {
	b.id = b.tr.reserve("runner.Backend.Run", b.parent, b.swp)
	b.start = time.Now()
	out, err := b.inner.Run(jobs, opt)
	b.tr.fill(b.id, b.start, time.Now())
	return out, err
}

func (f *fleet) pass(traced bool, sweep int) (passStats, error) {
	select {
	case err := <-f.workerErrs:
		return passStats{}, err
	default:
	}
	if f.next > f.primed {
		return passStats{}, errExhausted
	}
	if f.started.IsZero() {
		f.started = time.Now()
	}
	p := f.next
	f.next++
	cells := f.cells[p]
	o := experiments.Options{Backend: f.coord}
	var (
		mu    sync.Mutex
		ticks []time.Time
		tb    *timedBackend
		root  int
	)
	if traced {
		root = f.tr.reserve("experiments.RunCells", 0, sweep)
		tb = &timedBackend{inner: f.coord, tr: f.tr, parent: root, swp: sweep}
		o.Backend = tb
		o.Progress = func(done, total int) {
			now := time.Now()
			mu.Lock()
			ticks = append(ticks, now)
			mu.Unlock()
		}
	}
	before := readFunnel(nil)
	sw := startWatch()
	ms, err := experiments.RunCells(o, cells)
	ps := sw.stop(len(cells))
	if err != nil {
		return ps, err
	}
	f.checked.check(ms, f.ref[p])
	if f.passes < fleetRatioPasses {
		f.first = append(f.first, ms...)
	}
	f.passes++
	if !traced {
		counts := readFunnel(nil).sub(before)
		if counts.sims != 0 || counts.memoHits != 0 || counts.fetched != uint64(len(cells)) {
			f.counts = append(f.counts, counts)
		}
		return ps, nil
	}
	f.tr.fill(root, sw.t0, sw.t0.Add(ps.wall))
	mu.Lock()
	prev := tb.start
	for i, t := range ticks {
		name := "dist.cell_gap"
		if i == 0 {
			name = "dist.await_first"
		}
		f.tr.add(name, tb.id, sweep, prev, t)
		prev = t
	}
	mu.Unlock()
	return ps, f.probeRaw(cells, sweep)
}

// probeRaw times the raw store paths the fleet uses, on this pass's keys
// and outside the timed pass: GetRaw on the holder's store (what a peer
// FETCH serves) and PutRaw into a scratch store (what the cold worker
// installs).
func (f *fleet) probeRaw(cells []experiments.Cell, sweep int) error {
	dir, err := os.MkdirTemp(f.work, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := cellstore.Open(dir)
	if err != nil {
		return err
	}
	// A second handle on the holder's directory, so the probe's reads
	// stay out of the fleet's own store counters.
	holder, err := cellstore.Open(f.holderDir)
	if err != nil {
		return err
	}
	root := f.tr.reserve("cellstore.raw_probe", 0, sweep)
	p0 := time.Now()
	for _, c := range cells {
		key := c.Key(experiments.Options{})
		t0 := time.Now()
		raw, ok := holder.GetRaw(key)
		t1 := time.Now()
		if !ok {
			return fmt.Errorf("probe: key missing from the holder's store")
		}
		if err := scratch.PutRaw(key, raw); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		t2 := time.Now()
		f.tr.add("cellstore.GetRaw", root, sweep, t0, t1)
		f.tr.add("cellstore.PutRaw", root, sweep, t1, t2)
		f.rawBytes += len(raw)
	}
	f.tr.fill(root, p0, time.Now())
	return nil
}

func (f *fleet) bashVsBest() float64 { return bashVsBest(f.first) }

func (f *fleet) finish(c *checks, layers map[string]float64) {
	wall := time.Since(f.started)
	for _, e := range f.errs {
		c.expect(false, "%s", e)
	}
	c.cells(f.checked)
	n := uint64(3 * fleetPointsPerPass)
	c.expect(len(f.counts) == 0, "every fleet pass must fetch every cell and simulate none: %+v", f.counts)
	if len(f.counts) == 0 {
		layers["experiments.fetched"] = float64(n)
	}
	st := f.coord.Stats()
	d := func(a, b uint64) float64 { return float64(a - b) }
	s0 := f.stats0
	done := d(st.Completed, s0.Completed)
	c.expect(done == float64(c.attempted), "coordinator completed %v jobs over the timed passes, want %d", done, c.attempted)
	c.expect(st.FetchDirect-s0.FetchDirect == st.Completed-s0.Completed && st.Fetches == s0.Fetches,
		"every fleet cell must arrive by direct peer fetch: %d direct, %d relay fetches, %d completed",
		st.FetchDirect-s0.FetchDirect, st.Fetches-s0.Fetches, st.Completed-s0.Completed)
	if f.tr == nil || done == 0 {
		return
	}
	layers["dist.coord_bytes_per_cell"] = (d(st.BytesIn, s0.BytesIn) + d(st.BytesOut, s0.BytesOut)) / done
	layers["dist.frames_per_cell"] = (d(st.FramesIn, s0.FramesIn) + d(st.FramesOut, s0.FramesOut)) / done
	layers["dist.round_trips_per_cell"] = (d(st.Leases, s0.Leases) + d(st.Refills, s0.Refills)) / done
	layers["dist.fetch_direct_frac"] = d(st.FetchDirect, s0.FetchDirect) / done
	layers["dist.peer_puts_per_cell"] = d(st.PeerPuts, s0.PeerPuts) / done
	layers["dist.advert_bytes_per_s"] = d(st.AdvertBytes, s0.AdvertBytes) / wall.Seconds()
	layers["dist.fetch_fallback"] = d(st.FetchFallback, s0.FetchFallback)
	layers["dist.fetch_false_pos"] = d(st.FetchFalsePos, s0.FetchFalsePos)
	layers["dist.reassigned"] = d(st.Reassigned, s0.Reassigned)
	layers["dist.failed"] = d(st.Failed, s0.Failed)

	sc := f.storeCounts().sub(f.stores0)
	passes := float64(f.passes)
	layers["cellstore.hits"] = float64(sc.hits) / passes
	layers["cellstore.misses"] = float64(sc.misses) / passes
	layers["cellstore.writes"] = float64(sc.writes) / passes

	spans := f.tr.layers()
	mean := func(name string) time.Duration {
		if l := spans[name]; l != nil {
			return l.meanTotal()
		}
		return 0
	}
	layers["runner.backend_run_ms"] = ms(mean("runner.Backend.Run"))
	layers["dist.first_result_ms"] = ms(mean("dist.await_first"))
	if l := spans["dist.cell_gap"]; l != nil {
		var xs []float64
		for _, d := range l.durations {
			xs = append(xs, ms(d))
		}
		layers["dist.cell_gap_ms_p50"] = median(xs)
	}
	if l := spans["experiments.RunCells"]; l != nil {
		layers["experiments.funnel_us_per_cell"] = us(l.self) / float64(l.count) / float64(n)
	}
	layers["cellstore.get_raw_us"] = us(mean("cellstore.GetRaw"))
	layers["cellstore.put_raw_us"] = us(mean("cellstore.PutRaw"))
	if l := spans["cellstore.GetRaw"]; l != nil {
		layers["cellstore.entry_bytes"] = float64(f.rawBytes) / float64(l.count)
	}
}
