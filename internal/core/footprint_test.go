package core_test

// Memory-footprint gates: a System's per-node state must stay small enough
// that the paper's 256-processor configurations (Figure 8) fit in a
// worker's memory. The live heap of a preheated, briefly run System should
// grow with the blocks it touched, not with its 16,384 sets per node or
// with node count squared.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/workload"
)

// footprintCell is one System shape the footprint gates measure.
type footprintCell struct {
	name  string
	nodes int
	gen   func(nodes int) workload.Generator
}

// oltpCell and lockingCell are the sweep's two warm-set shapes: OLTP's
// 16,384-block shared pool, and the locking microbenchmark's 128 locks per
// processor (32,768 at 256 processors).
func oltpCell(nodes int) footprintCell {
	return footprintCell{fmt.Sprintf("oltp/%dp", nodes), nodes, func(int) workload.Generator { return workload.OLTP() }}
}

func lockingCell(nodes int) footprintCell {
	return footprintCell{fmt.Sprintf("locking/%dp", nodes), nodes, func(n int) workload.Generator { return workload.NewLocking(128*n, 0) }}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// systemFootprintMB builds a BASH System for c with the paper's default
// cache geometry and c's warm set, runs 10 warm-up and 40 measured
// operations per processor, and returns the live heap the System holds,
// in MB.
func systemFootprintMB(c footprintCell) float64 {
	base := liveHeap()
	wl := c.gen(c.nodes)
	sys := core.NewSystem(core.Config{
		Protocol:     core.BASH,
		Nodes:        c.nodes,
		BandwidthMBs: 1600,
		Seed:         1,
		Preheat:      wl.WarmBlocks(),
	})
	sys.AttachWorkload(func(network.NodeID) core.Workload { return wl })
	n := uint64(c.nodes)
	sys.Measure(10*n, 40*n)
	held := liveHeap() - base
	runtime.KeepAlive(sys)
	return float64(held) / (1 << 20)
}

// TestSystemFootprint: a preheated and briefly run 64-processor OLTP
// System holds under 35 MB of live heap and a 256-processor locking System
// under 110 MB, about twice what they measure (14 and 53 MB).
func TestSystemFootprint(t *testing.T) {
	for _, tc := range []struct {
		cell  footprintCell
		maxMB float64
	}{
		{oltpCell(64), 35},
		{lockingCell(256), 110},
	} {
		t.Run(tc.cell.name, func(t *testing.T) {
			if tc.cell.nodes > 64 && testing.Short() {
				t.Skip("256-processor System in -short mode")
			}
			got := systemFootprintMB(tc.cell)
			t.Logf("%s: %.1f MB live", tc.cell.name, got)
			if got > tc.maxMB {
				t.Errorf("%s System holds %.1f MB of live heap, want under %.0f MB", tc.cell.name, got, tc.maxMB)
			}
		})
	}
}

// BenchmarkSystemFootprint reports the live heap of one preheated and
// briefly run OLTP System at 16, 64 and 256 processors (live_MB; see
// TestSystemFootprint for the shape).
func BenchmarkSystemFootprint(b *testing.B) {
	for _, nodes := range []int{16, 64, 256} {
		c := oltpCell(nodes)
		b.Run(c.name, func(b *testing.B) {
			var mb float64
			for range b.N {
				mb = systemFootprintMB(c)
			}
			b.ReportMetric(mb, "live_MB")
		})
	}
}
