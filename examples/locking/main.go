// Locking sweeps endpoint bandwidth on the locking microbenchmark and
// prints the Figure 1 comparison: Snooping vs. BASH vs. Directory. Watch
// BASH track Directory when bandwidth is scarce, beat both in the
// mid-range, and converge to Snooping when bandwidth is plentiful.
package main

import (
	"fmt"

	bashsim "repro"
)

func main() {
	const nodes = 16
	bandwidths := []float64{200, 400, 800, 1600, 3200, 6400, 12800}
	protocols := []bashsim.Protocol{bashsim.Snooping, bashsim.BASH, bashsim.Directory}

	fmt.Println("Locking microbenchmark, 16 processors (lock acquires/ns):")
	fmt.Printf("%-10s", "MB/s")
	for _, p := range protocols {
		fmt.Printf("%12s", p)
	}
	fmt.Println()

	for _, bw := range bandwidths {
		fmt.Printf("%-10.0f", bw)
		for _, p := range protocols {
			lk := bashsim.NewLockingWorkload(128*nodes, 0)
			sys := bashsim.NewSystem(bashsim.Config{
				Protocol:     p,
				Nodes:        nodes,
				BandwidthMBs: bw,
				Preheat:      lk.WarmBlocks(),
			})
			sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return lk })
			m := sys.Measure(1000, 5000)
			fmt.Printf("%12.4f", m.Throughput)
		}
		fmt.Println()
	}
	fmt.Println("\nexpected: Directory leads at the top rows, BASH leads the middle,")
	fmt.Println("Snooping and BASH tie at the bottom (plentiful bandwidth).")
}
