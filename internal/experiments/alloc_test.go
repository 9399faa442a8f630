package experiments

import (
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/workload"
)

// allocGrid is a small sweep-cold grid: 16 nodes, the three compared
// protocols, the locking microbenchmark and OLTP (a 16,384-block warm
// set), at two bandwidths (12 cells).
func allocGrid() []Cell {
	var cells []Cell
	for _, wl := range []string{"", "OLTP"} {
		for _, bw := range []float64{400, 4200} {
			for _, p := range evalProtocols {
				cells = append(cells, Cell{Protocol: p, Nodes: 16, BandwidthMBs: bw, BroadcastCost: 1, Workload: wl, Seed: 11})
			}
		}
	}
	return cells
}

// sweepPass runs cells serially through RunCells into a fresh cell store
// under parent, as one sweep-cold pass does: the memo is dropped first,
// so every cell is leased, simulated and written.
func sweepPass(tb testing.TB, parent string, cells []Cell) []core.Metrics {
	dir, err := os.MkdirTemp(parent, "pass-")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ResetMemo()
	ms, err := RunCells(Options{Parallel: 1, CacheDir: dir}, cells)
	if err != nil {
		tb.Fatal(err)
	}
	return ms
}

// The budgets bound what one cell of a pooled sweep pass may allocate once
// the pool is warm: the cell-store write, the runner's bookkeeping, the
// generator and its per-node cursors, and the Metrics. A warm set built
// per cell (128 KB for OLTP's 16,384 blocks) breaks the byte budget; a
// Processor built per node, or the network records a cell leaves in
// flight not taken back, break the object budget.
const (
	pooledPassBytesPerCell   = 12 << 10
	pooledPassObjectsPerCell = 80
)

// TestPooledSweepAllocBudget: once the System pool is warm, a serial pass
// over allocGrid allocates at most the budgets above per cell and returns
// the first pass's metrics exactly. Two passes warm the pool: the first
// builds one System per protocol, and in the second each System first
// clears OLTP's 16,384-block warm set, which grows its record free lists
// to hold it (about 300 KB per cell, once). The third pass is measured.
func TestPooledSweepAllocBudget(t *testing.T) {
	cells := allocGrid()
	parent := t.TempDir()
	first := sweepPass(t, parent, cells)
	sweepPass(t, parent, cells)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	third := sweepPass(t, parent, cells)
	runtime.ReadMemStats(&after)
	for i := range first {
		if first[i] != third[i] {
			t.Fatalf("cell %d: third pass %+v, first %+v", i, third[i], first[i])
		}
	}
	n := uint64(len(cells))
	bytes, objects := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("warm pass: %d B and %d objects per cell", bytes, objects)
	if bytes > pooledPassBytesPerCell || objects > pooledPassObjectsPerCell {
		t.Errorf("warm pass allocated %d B and %d objects per cell, budget %d B and %d objects",
			bytes, objects, pooledPassBytesPerCell, pooledPassObjectsPerCell)
	}
}

// TestSharedWarmSetUnchanged: a Parallel: 2 sweep runs cells that share one
// warm set per shape on two workers at once, and every shared set still
// equals a freshly built one afterwards. Under -race the sweep also shows
// that no System writes a set another one reads.
func TestSharedWarmSetUnchanged(t *testing.T) {
	ResetMemo()
	if _, err := RunCells(Options{Parallel: 2}, allocGrid()); err != nil {
		t.Fatal(err)
	}
	for k, g := range map[warmKey]interface{ WarmBlocks() []coherence.Addr }{
		{locks: 128 * 16}: workload.NewLocking(128*16, 0),
		{name: "OLTP"}:    workload.OLTP(),
	} {
		warmSets.Lock()
		shared, ok := warmSets.m[k]
		warmSets.Unlock()
		if !ok {
			t.Errorf("%+v: the sweep shared no warm set", k)
		} else if !slices.Equal(shared, g.WarmBlocks()) {
			t.Errorf("%+v: the shared warm set changed during the sweep", k)
		}
	}
}

// BenchmarkPooledSweepPass times one serial sweep-cold pass over allocGrid
// per iteration, with the System pool warmed by two passes before the
// timer starts. Run with -benchmem: B/op and allocs/op are one pass's, and
// B/cell is a quantity TestPooledSweepAllocBudget bounds.
func BenchmarkPooledSweepPass(b *testing.B) {
	cells := allocGrid()
	parent := b.TempDir()
	sweepPass(b, parent, cells)
	sweepPass(b, parent, cells)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepPass(b, parent, cells)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*len(cells)), "B/cell")
}
