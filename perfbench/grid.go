package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
)

// protocols are the three compared protocols; every grid point lists its
// cells in this order, so cells[3k:3k+3] is point k.
var protocols = []core.Protocol{core.Snooping, core.BASH, core.Directory}

// sweepWorkloads are the six panels of the paper's Figures 10 and 11: the
// locking microbenchmark ("") and the five Table 2 workloads.
var sweepWorkloads = []string{"", "Apache", "Barnes-Hut", "OLTP", "Slashcode", "SPECjbb"}

// The sweep grid straddles the BASH crossover: at 400 MB/s Directory
// matches or beats Snooping (and wins outright at 4x broadcast cost), at
// 4200 MB/s Snooping wins, and BASH should track the better of the two.
var sweepBandwidths = []float64{400, 4200}

// Per-cell operation counts. 64-node cells are scaled by nodes/16 inside
// the simulator's cell runner, so 200/600 simulates the same 800/2400
// operations per 16 processors as the 16-node cells.
const (
	sweepWarm, sweepMeasure     = 800, 2400
	sweepWarm64, sweepMeasure64 = 200, 600
)

// splitmix64 is the SplitMix64 finalizer: it spreads a workload seed over
// 64 bits so neighbouring seeds give unrelated cell seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sweepGrid returns the sweep-cold/sweep-warm grid for a workload seed:
// six workloads x two broadcast costs x two bandwidths at 16 nodes, plus a
// 64-node microbenchmark column at both bandwidths, three protocols per
// point (78 cells). The seed sets every point's simulation seed; the
// shape is fixed so host cost per pass does not depend on the seed.
func sweepGrid(seed uint64) []experiments.Cell {
	base := splitmix64(seed)
	var cells []experiments.Cell
	point := uint64(0)
	add := func(nodes int, wl string, bcost, bw float64, warm, measure uint64) {
		for _, p := range protocols {
			cells = append(cells, experiments.Cell{
				Protocol: p, Nodes: nodes, BandwidthMBs: bw, BroadcastCost: bcost,
				Workload: wl, Seed: base + point, Warm: warm, Measure: measure,
			})
		}
		point++
	}
	for _, wl := range sweepWorkloads {
		for _, bcost := range []float64{1, 4} {
			for _, bw := range sweepBandwidths {
				add(16, wl, bcost, bw, sweepWarm, sweepMeasure)
			}
		}
	}
	for _, bw := range sweepBandwidths {
		add(64, "", 1, bw, sweepWarm64, sweepMeasure64)
	}
	return cells
}

// Fleet cells are short few-node locking-microbenchmark cells: about
// 0.3-0.5 ms each to simulate, because what fleet-fetch measures (grant,
// peer FETCH, PutRaw, replica PUT, result post) does not depend on how
// long a cell simulated. The synthetic workloads are left out: their
// warm-start preheat alone costs 5-15 ms per cell.
const (
	fleetPointsPerPass      = 32 // 96 cells per pass
	fleetWarm, fleetMeasure = 50, 150
)

var fleetBandwidths = []float64{400, 1600, 4200}

// fleetPass returns the cells of fleet pass p. Pass 0 is the warm-up pass
// setup sends through the fleet; timed passes are 1, 2, .... Every point
// of every pass has its own simulation seed (base + global point index),
// so no two passes share a key and no timed pass repeats a warm-up key:
// the cold worker has never seen any cell it is granted.
func fleetPass(seed uint64, p int) []experiments.Cell {
	base := splitmix64(seed ^ 0x666c656574) // "fleet"
	cells := make([]experiments.Cell, 0, 3*fleetPointsPerPass)
	for k := 0; k < fleetPointsPerPass; k++ {
		s := base + uint64(p*fleetPointsPerPass+k)
		nodes := 2 + 2*int(s%2)
		bw := fleetBandwidths[(s/2)%uint64(len(fleetBandwidths))]
		for _, proto := range protocols {
			cells = append(cells, experiments.Cell{
				Protocol: proto, Nodes: nodes, BandwidthMBs: bw, BroadcastCost: 1,
				Seed: s, Warm: fleetWarm, Measure: fleetMeasure,
			})
		}
	}
	return cells
}

// bashVsBest is the geometric mean over grid points of BASH throughput
// divided by the better of Snooping and Directory. ms must be in grid
// order (three protocols per point, in protocols order).
func bashVsBest(ms []core.Metrics) float64 {
	var ratios []float64
	for k := 0; k+2 < len(ms); k += 3 {
		best := math.Max(ms[k].Throughput, ms[k+2].Throughput)
		if best > 0 && ms[k+1].Throughput > 0 {
			ratios = append(ratios, ms[k+1].Throughput/best)
		}
	}
	return geomean(ratios)
}
