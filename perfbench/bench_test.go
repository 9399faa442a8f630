package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// fleetSample returns a few cheap cells in grid order (three protocols per
// point), covering both node counts the fleet uses and one synthetic
// workload.
func fleetSample() []experiments.Cell {
	cells := fleetPass(5, 0)[:6]
	for _, p := range protocols {
		cells = append(cells, experiments.Cell{
			Protocol: p, Nodes: 4, BandwidthMBs: 1600, BroadcastCost: 4,
			Workload: "SPECjbb", Seed: 99, Warm: 50, Measure: 150,
		})
	}
	return cells
}

// TestCheckerFlagsAlteredMetrics: a reference compared with itself passes;
// each deliberately altered field is flagged as exactly one failed cell.
func TestCheckerFlagsAlteredMetrics(t *testing.T) {
	experiments.ResetMemo()
	ref, err := experiments.RunCells(experiments.Options{Parallel: 1}, fleetSample())
	if err != nil {
		t.Fatal(err)
	}
	if bad, first := diffCells(ref, ref); bad != 0 {
		t.Fatalf("identical cells flagged: %s", first)
	}
	alter := map[string]func(m *core.Metrics){
		"throughput one ulp": func(m *core.Metrics) { m.Throughput = math.Nextafter(m.Throughput, 1) },
		"nacks":              func(m *core.Metrics) { m.Nacks++ },
		"ops":                func(m *core.Metrics) { m.Ops-- },
		"bytes per op":       func(m *core.Metrics) { m.BytesPerOp *= 1.5 },
	}
	for name, fn := range alter {
		got := append([]core.Metrics(nil), ref...)
		fn(&got[4])
		bad, first := diffCells(got, ref)
		if bad != 1 || first == "" {
			t.Errorf("%s: diffCells flagged %d cells (%q), want 1", name, bad, first)
		}
		var tl tally
		tl.check(ref, ref)
		tl.check(got, ref)
		var c checks
		c.cells(tl)
		if c.failed != 1 || c.attempted != 2*len(got) || len(c.problems) != 1 {
			t.Errorf("%s: checks = %+v, want one failed cell of %d", name, c, len(got))
		}
	}
	if bad, _ := diffCells(ref[:3], ref); bad == 0 {
		t.Error("a short delivery was not flagged")
	}
}

// TestComposeMatchesFunnel: the traced composition reproduces the cell
// funnel's Metrics exactly, so it can serve as sweep-cold's reference.
func TestComposeMatchesFunnel(t *testing.T) {
	cells := fleetSample()
	experiments.ResetMemo()
	want, err := experiments.RunCells(experiments.Options{Parallel: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool()
	for i, c := range cells {
		got, counts, err := composeCell(nil, 0, 0, pool, nil, "", c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("cell %d: composed %+v, funnel %+v", i, got, want[i])
		}
		if counts.events == 0 {
			t.Errorf("cell %d: no events counted", i)
		}
	}
}

// TestGeneratorDeterministic: the same seed gives the same cells, another
// seed different ones, for both generators.
func TestGeneratorDeterministic(t *testing.T) {
	a, b, c := sweepGrid(7), sweepGrid(7), sweepGrid(8)
	if len(a) != 78 {
		t.Fatalf("sweep grid has %d cells, want 78", len(a))
	}
	same := func(x, y []experiments.Cell) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("sweepGrid(7) differs between calls")
	}
	if same(a, c) {
		t.Error("sweepGrid(7) equals sweepGrid(8)")
	}
	for p := 0; p < 3; p++ {
		if !same(fleetPass(7, p), fleetPass(7, p)) {
			t.Errorf("fleetPass(7, %d) differs between calls", p)
		}
		if same(fleetPass(7, p), fleetPass(8, p)) {
			t.Errorf("fleetPass(7, %d) equals fleetPass(8, %d)", p, p)
		}
	}
}

// TestFleetKeysDisjoint: no timed fleet pass repeats a key of the warm-up
// pass (the holder's keys the cold worker has already fetched) or of
// another pass, for several seeds.
func TestFleetKeysDisjoint(t *testing.T) {
	o := experiments.Options{}
	for _, seed := range []uint64{0, 1, 2, 1000, math.MaxUint64} {
		seen := map[string]int{}
		for p := 0; p <= 200; p++ {
			for _, c := range fleetPass(seed, p) {
				k := c.Key(o)
				if q, dup := seen[k]; dup {
					t.Fatalf("seed %d: pass %d repeats a key of pass %d", seed, p, q)
				}
				seen[k] = p
			}
		}
	}
}

func TestBlocksPoolShortPasses(t *testing.T) {
	ms := time.Millisecond
	ps := []passStats{{cells: 1, wall: 100 * ms}, {cells: 1, wall: 200 * ms}, {cells: 2, wall: 300 * ms}, {cells: 1, wall: 10 * ms}}
	b := blocks(ps)
	if len(b) != 2 || b[0].cells != 2 || b[0].wall != 300*ms || b[1].cells != 3 || b[1].wall != 310*ms {
		t.Errorf("blocks = %+v", b)
	}
}

// TestSelfTime: a span's self time excludes the union of its children,
// counting overlapping children once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.reserve("root", 0, 1)
	tr.add("child", root, 1, at(10), at(30))
	tr.add("child", root, 1, at(20), at(40))  // overlaps the first
	tr.add("child", root, 1, at(90), at(120)) // runs past the parent
	tr.fill(root, at(0), at(100))
	l := tr.layers()
	if got, want := l["root"].self, 60*time.Millisecond; got != want {
		t.Errorf("root self = %v, want %v", got, want)
	}
	if got, want := l["child"].total, 70*time.Millisecond; got != want {
		t.Errorf("child total = %v, want %v", got, want)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != 4 {
		t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
	}
}

// TestBenchmarkJSONListsEveryMetric: BENCHMARK.json names exactly the
// metrics this program prints, with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark directory")
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestExactCountGuard: a count that repeats passes, one that changes
// between runs of the same binary and seed is reported, and counts a run
// did not measure are carried over rather than compared.
func TestExactCountGuard(t *testing.T) {
	dir := t.TempDir()
	first := map[string]float64{"bash_vs_best": 0.9, "experiments.sims": 78}
	if d, err := checkExact(dir, "sweep-cold", 3, first); err != nil || len(d) != 0 {
		t.Fatalf("first run: diffs %v, err %v", d, err)
	}
	traced := map[string]float64{"bash_vs_best": 0.9, "sim.events_per_op": 42.1, "cells_per_s": 25}
	if d, err := checkExact(dir, "sweep-cold", 3, traced); err != nil || len(d) != 0 {
		t.Fatalf("traced run: diffs %v, err %v", d, err)
	}
	drift := map[string]float64{"bash_vs_best": math.Nextafter(0.9, 1), "sim.events_per_op": 42.1}
	if d, err := checkExact(dir, "sweep-cold", 3, drift); err != nil || len(d) != 1 {
		t.Errorf("drifted run: diffs %v, err %v; want one", d, err)
	}
	if d, err := checkExact(dir, "sweep-cold", 4, drift); err != nil || len(d) != 0 {
		t.Errorf("another seed: diffs %v, err %v; want none", d, err)
	}
}
