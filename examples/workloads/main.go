// Workloads compares the three protocols on the paper's five commercial and
// scientific workloads at 1600 MB/s with 4x broadcast cost — the Figure 12
// scenario in which no static protocol choice wins everywhere, but the
// bandwidth adaptive hybrid matches the best choice per workload.
package main

import (
	"fmt"

	bashsim "repro"
)

func main() {
	const nodes = 16
	names := []string{"Apache", "Barnes-Hut", "OLTP", "Slashcode", "SPECjbb"}
	protocols := []bashsim.Protocol{bashsim.BASH, bashsim.Snooping, bashsim.Directory}

	fmt.Println("16 processors, 1600 MB/s endpoint bandwidth, 4x broadcast cost")
	fmt.Printf("%-12s", "workload")
	for _, p := range protocols {
		fmt.Printf("%12s", p)
	}
	fmt.Println("   winner")

	for _, name := range names {
		var thr [3]float64
		for i, p := range protocols {
			wl := bashsim.WorkloadByName(name)
			sys := bashsim.NewSystem(bashsim.Config{
				Protocol:      p,
				Nodes:         nodes,
				BandwidthMBs:  1600,
				BroadcastCost: 4,
				Preheat:       wl.WarmBlocks(),
			})
			sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return wl })
			thr[i] = sys.Measure(1000, 5000).Throughput
		}
		// Normalize to BASH, the paper's Figure 12 presentation.
		fmt.Printf("%-12s", name)
		for i := range protocols {
			fmt.Printf("%12.3f", thr[i]/thr[0])
		}
		winner := "Snooping"
		if thr[2] > thr[1] {
			winner = "Directory"
		}
		fmt.Printf("   %s (of the static pair)\n", winner)
	}
	fmt.Println("\nexpected: Snooping wins OLTP and Barnes-Hut, Directory wins SPECjbb,")
	fmt.Println("and BASH matches or exceeds the static winner on every workload.")
}
