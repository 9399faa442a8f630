// Quickstart: build a 16-processor BASH system, run the locking
// microbenchmark, and print throughput, miss latency, link utilization and
// the adaptive mechanism's broadcast mix.
package main

import (
	"fmt"

	bashsim "repro"
)

func main() {
	const nodes = 16
	// The locking microbenchmark: every acquire is a cache-to-cache
	// transfer once lock ownership is spread across the machine, so the
	// system starts with lock i owned (Modified) by processor i % 16.
	lk := bashsim.NewLockingWorkload(128*nodes, 0)
	sys := bashsim.NewSystem(bashsim.Config{
		Protocol:     bashsim.BASH,
		Nodes:        nodes,
		BandwidthMBs: 1600, // the paper's per-processor endpoint bandwidth
		Preheat:      lk.WarmBlocks(),
	})
	sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return lk })

	m := sys.Measure(2000, 10000)
	fmt.Println("BASH on the locking microbenchmark (16 processors, 1600 MB/s):")
	fmt.Printf("  throughput:        %.4f lock acquires/ns\n", m.Throughput)
	fmt.Printf("  avg miss latency:  %.0f ns\n", m.AvgMissLatency)
	fmt.Printf("  link utilization:  %.1f%% (target 75%%)\n", 100*m.Utilization)
	fmt.Printf("  broadcast mix:     %.0f%% broadcast / %.0f%% unicast\n",
		100*m.BroadcastFraction, 100*(1-m.BroadcastFraction))
	fmt.Printf("  memory retries:    %d (nacks: %d)\n", m.Retries, m.Nacks)

	st := sys.CacheStats()
	fmt.Printf("  sharing misses:    %d of %d misses\n", st.SharingMisses, st.Misses)
}
