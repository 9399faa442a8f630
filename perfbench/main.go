// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed wall-clock budget and prints,
// as its last line, one JSON object with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"cpu_ms_per_cell", "ms"},
	{"peak_rss_mb", "MB"},
	{"bash_vs_best", "ratio"},
}

// perLayer lists the traced run's metrics with their units. Every traced
// run reports all of them; a layer the workload leaves idle reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"core.lease_ms", "ms"},
	{"core.preheat_ms", "ms"},
	{"core.measure_ms", "ms"},
	{"core.sim_ops_per_s", "1/s"},
	{"core.pool_builds", "count"},
	{"network.bytes_per_op", "B"},
	{"network.control_bytes_per_op", "B"},
	{"network.utilization", "ratio"},
	{"coherence.miss_latency_ns", "ns"},
	{"coherence.retries_per_op", "count"},
	{"coherence.nacks_per_op", "count"},
	{"coherence.sharing_miss_frac", "ratio"},
	{"cache.miss_ratio", "ratio"},
	{"adaptive.broadcast_frac", "ratio"},
	{"experiments.funnel_us_per_cell", "us"},
	{"experiments.sims", "count"},
	{"experiments.memo_hits", "count"},
	{"experiments.fetched", "count"},
	{"cellstore.get_us", "us"},
	{"cellstore.put_us", "us"},
	{"cellstore.get_raw_us", "us"},
	{"cellstore.put_raw_us", "us"},
	{"cellstore.entry_bytes", "B"},
	{"cellstore.hits", "count"},
	{"cellstore.misses", "count"},
	{"cellstore.writes", "count"},
	{"runner.backend_run_ms", "ms"},
	{"dist.first_result_ms", "ms"},
	{"dist.cell_gap_ms_p50", "ms"},
	{"dist.coord_bytes_per_cell", "B"},
	{"dist.frames_per_cell", "count"},
	{"dist.round_trips_per_cell", "count"},
	{"dist.fetch_direct_frac", "ratio"},
	{"dist.peer_puts_per_cell", "count"},
	{"dist.advert_bytes_per_s", "B/s"},
	{"dist.fetch_fallback", "count"},
	{"dist.fetch_false_pos", "count"},
	{"dist.reassigned", "count"},
	{"dist.failed", "count"},
	{"proc.alloc_kb_per_cell", "KB"},
	{"proc.gc_cpu_frac", "ratio"},
	{"trace.speed_ratio", "ratio"},
}

// setupReps is how many times each run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// maxTracedPasses caps the traced passes of one run (sweep-warm makes
// thousands of passes), which bounds the span log and the trace file.
const maxTracedPasses = 200

// minBlock is the shortest interval one throughput sample covers:
// consecutive passes are pooled until they span it, so short passes
// (sweep-warm's are milliseconds) are not timed one by one.
const minBlock = 250 * time.Millisecond

// passStats is one timed pass: delivered cells, wall and CPU time, and the
// Go runtime's allocation and GC-CPU deltas.
type passStats struct {
	cells           int
	wall, cpu       time.Duration
	allocBytes      uint64
	gcCPU, totalCPU float64
	// perCell holds each cell's wall time on serial passes, where the
	// Progress callback marks every cell's end; nil on fleet passes, whose
	// cells overlap.
	perCell []time.Duration
}

// stopwatch times one pass.
type stopwatch struct {
	t0  time.Time
	c0  time.Duration
	rt0 runtimeSample
}

func startWatch() stopwatch {
	return stopwatch{rt0: sampleRuntime(), c0: cpuTime(), t0: time.Now()}
}

func (s stopwatch) stop(cells int) passStats {
	wall := time.Since(s.t0)
	cpu := cpuTime() - s.c0
	rt := sampleRuntime()
	return passStats{
		cells: cells, wall: wall, cpu: cpu,
		allocBytes: rt.allocBytes - s.rt0.allocBytes,
		gcCPU:      rt.gcCPU - s.rt0.gcCPU, totalCPU: rt.totalCPU - s.rt0.totalCPU,
	}
}

// sum pools passes into one.
func sum(ps []passStats) passStats {
	var t passStats
	for _, p := range ps {
		t.cells += p.cells
		t.wall += p.wall
		t.cpu += p.cpu
		t.allocBytes += p.allocBytes
		t.gcCPU += p.gcCPU
		t.totalCPU += p.totalCPU
	}
	return t
}

// blocks pools consecutive passes until each pool spans minBlock; a
// trailing pool shorter than that is merged into the one before it.
func blocks(ps []passStats) []passStats {
	var out []passStats
	var cur []passStats
	for _, p := range ps {
		cur = append(cur, p)
		if b := sum(cur); b.wall >= minBlock {
			out = append(out, b)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(out) == 0 {
			return []passStats{sum(cur)}
		}
		out[len(out)-1] = sum(append([]passStats{out[len(out)-1]}, cur...))
	}
	return out
}

// perCellMedian sums, over the cells of a serial pass, each cell's median
// wall time across passes: a pass time from which a transient slowdown of
// the host in any one pass drops out cell by cell. ok is false unless
// every pass timed the same cells.
func perCellMedian(ps []passStats) (wall time.Duration, n int, ok bool) {
	if len(ps) == 0 {
		return 0, 0, false
	}
	n = len(ps[0].perCell)
	for _, p := range ps {
		if n == 0 || len(p.perCell) != n {
			return 0, 0, false
		}
	}
	ws := make([]float64, len(ps))
	for i := 0; i < n; i++ {
		for j, p := range ps {
			ws[j] = float64(p.perCell[i])
		}
		wall += time.Duration(median(ws))
	}
	return wall, n, true
}

func cellsPerSecond(ps []passStats) []float64 {
	var xs []float64
	for _, b := range blocks(ps) {
		xs = append(xs, float64(b.cells)/b.wall.Seconds())
	}
	return xs
}

// scenario is one benchmark workload.
type scenario interface {
	// setup prepares fresh state for the timed passes, tearing down what
	// an earlier setup left.
	setup() error
	// pass runs one timed pass. A traced pass goes through the same
	// public calls one by one, recording a span around each.
	pass(traced bool, sweep int) (passStats, error)
	// finish checks every delivered cell against its reference and
	// reports the per-layer metrics.
	finish(c *checks, layers map[string]float64)
	// bashVsBest is the exact BASH-vs-best ratio of the delivered cells.
	bashVsBest() float64
	close()
}

// checks collects correctness outcomes: every delivered cell counts as
// attempted, every cell that errored or differs from its reference as
// failed, and any broken invariant (an exact count that did not repeat, a
// pass that did not match its workload's intent) fails the run.
type checks struct {
	attempted, failed int
	problems          []string
}

func (c *checks) cells(t tally) {
	c.attempted += t.attempted
	c.failed += t.failed
	if t.failed > 0 {
		c.problems = append(c.problems, fmt.Sprintf("%d of %d cells differ from their reference; first: %s", t.failed, t.attempted, t.first))
	}
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	name := flag.String("workload", "", "workload: sweep-cold, sweep-warm or fleet-fetch")
	seed := flag.Uint64("seed", 1, "workload seed: generates every cell the program receives")
	seconds := flag.Float64("seconds", 20, "how long the timed passes run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the untraced end-to-end run")
	workRoot := flag.String("work", filepath.Join(".bench_build", "work"), "directory for this run's cell stores (removed on exit)")
	traceOut := flag.String("trace-out", "", "Chrome trace-event JSON written by the traced run (default .bench_build/trace-<workload>-<seed>.json)")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fatalf("work dir: %v", err)
	}
	work, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		fatalf("work dir: %v", err)
	}
	code := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, work, *traceOut)
	os.RemoveAll(work)
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one benchmark invocation and returns the exit code.
func run(name string, seed uint64, budget time.Duration, traced bool, work, traceOut string) int {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var w scenario
	switch name {
	case "sweep-cold":
		w = newSweep(seed, work, tr, false)
	case "sweep-warm":
		w = newSweep(seed, work, tr, true)
	case "fleet-fetch":
		w = newFleet(seed, work, tr, budget)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want sweep-cold, sweep-warm or fleet-fetch)\n", name)
		return 2
	}
	defer w.close()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	settle()

	// Sized up front so the pass log does not grow the heap mid-run.
	plain, withSpans := make([]passStats, 0, 8192), make([]passStats, 0, 1024)
	start := time.Now()
	var exhausted time.Duration
	for sweep := 1; ; sweep++ {
		isTraced := traced && sweep%2 == 0 && len(withSpans) < maxTracedPasses
		ps, err := w.pass(isTraced, sweep)
		if errors.Is(err, errExhausted) {
			exhausted = time.Since(start)
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %v\n", name, sweep, err)
			return 1
		}
		if isTraced {
			withSpans = append(withSpans, ps)
		} else {
			plain = append(plain, ps)
		}
		if time.Since(start) >= budget && (!traced || len(withSpans) > 0) {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	var c checks
	// A run cut short is not comparable with a full one, so it fails.
	c.expect(exhausted == 0, "%v after %.1f s of the %.0f s budget: raise fleetMaxCellsPerS", errExhausted, exhausted.Seconds(), budget.Seconds())
	layers := map[string]float64{}
	w.finish(&c, layers)
	ratio := w.bashVsBest()
	exact := map[string]float64{"bash_vs_best": ratio}
	for k, v := range layers {
		exact[k] = v
	}
	diffs, err := checkExact(filepath.Join(".bench_build", "exact"), name, seed, exact)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, d := range diffs {
		c.expect(false, "exact count did not repeat: %s", d)
	}

	out := result{Metrics: map[string]metric{}}
	if traced {
		all := sum(plain)
		layers["proc.alloc_kb_per_cell"] = float64(all.allocBytes) / 1024 / float64(all.cells)
		if all.totalCPU > 0 {
			layers["proc.gc_cpu_frac"] = all.gcCPU / all.totalCPU
		}
		layers["trace.speed_ratio"] = median(cellsPerSecond(withSpans)) / median(cellsPerSecond(plain))
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, seed))
		}
		if err := tr.writeChrome(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", tr.count(), traceOut)
	} else {
		// Throughput is a median, so a transient slowdown of the host
		// drops out; CPU is the total over every untraced pass, so costs
		// that come in bursts (a GC cycle, an advert rebuild) count in
		// full.
		rate := median(cellsPerSecond(plain))
		if wall, n, ok := perCellMedian(plain); ok {
			rate = float64(n) / wall.Seconds()
		}
		all := sum(plain)
		cpuMs := all.cpu.Seconds() * 1e3 / float64(all.cells)
		vals := map[string]float64{
			"setup_s":         median(setups),
			"cells_per_s":     rate,
			"cpu_ms_per_cell": cpuMs,
			"peak_rss_mb":     rss,
			"bash_vs_best":    ratio,
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	out.Attempted, out.Failed = c.attempted, c.failed
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			c.problems = append(c.problems, fmt.Sprintf("metric %s is not finite", name))
			out.Metrics[name] = metric{0, m.Unit}
		}
	}
	out.Correct = len(c.problems) == 0 && c.failed == 0 && c.attempted > 0

	printSummary(name, seed, traced, setups, plain, withSpans, out, c, ratio)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printSummary writes the human-readable report that precedes the JSON
// line: every metric by name with its unit, and any failed check.
func printSummary(name string, seed uint64, traced bool, setups []float64, plain, withSpans []passStats, out result, c checks, ratio float64) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("workload %s seed %d (%s): %d untraced + %d traced passes, %d cells attempted, setup %s s\n",
		name, seed, mode, len(plain), len(withSpans), c.attempted, fmtList(setups))
	if rates := cellsPerSecond(plain); len(rates) > 0 {
		sort.Float64s(rates)
		fmt.Printf("  untraced blocks: %d, cells/s min %.4g median %.4g max %.4g\n", len(rates), rates[0], median(rates), rates[len(rates)-1])
	}
	frac := 0.0
	if c.attempted > 0 {
		frac = float64(c.failed) / float64(c.attempted)
	}
	fmt.Printf("  %-32s %12.6g %s\n", "cells_failed_frac", frac, "ratio")
	if traced {
		fmt.Printf("  %-32s %12.6g %s\n", "bash_vs_best", ratio, "ratio")
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %12.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, p := range c.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, "/")
}
