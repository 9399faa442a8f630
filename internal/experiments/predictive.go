package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Predictive evaluates the Section 7 future-work extension: BASH with a
// last-owner destination-set predictor. The predicted multicast makes most
// unicast-mode requests sufficient on their first instance, recovering
// snooping's cache-to-cache latency at close to unicast bandwidth — it
// should therefore beat plain BASH exactly where indirections dominate
// (scarce bandwidth, sharing-heavy traffic).
func Predictive(o Options) *TableResult {
	warm, measure := o.ops()
	nodes := 16
	t := &TableResult{
		ID:    "predictive",
		Title: "Destination-set prediction (Section 7 future work; locking microbenchmark, 16 processors)",
		Columns: []string{
			"protocol", "bandwidth (MB/s)", "throughput (ops/ns)",
			"miss latency (ns)", "retries/op", "pred hit rate",
		},
		Notes: []string{
			"BASH-pred adds the predicted owner to non-broadcast masks;",
			"a correct prediction avoids the 255 ns retry indirection entirely",
		},
	}
	// One job per (bandwidth, protocol) cell; the rows need CacheStats in
	// addition to Metrics, so each job renders its own row and the runner
	// folds them back in sweep order.
	type job struct {
		bw float64
		p  core.Protocol
	}
	var jobs []job
	for _, bw := range []float64{400, 800, 1600, 4000} {
		for _, p := range []core.Protocol{core.BASH, core.BashPredictive, core.Snooping, core.Directory} {
			jobs = append(jobs, job{bw: bw, p: p})
		}
	}
	label := func(i int) string {
		return fmt.Sprintf("predictive %s bw=%g", jobs[i].p, jobs[i].bw)
	}
	rows, err := runner.Map(len(jobs), o.runnerOptions(label), func(i int) ([]string, error) {
		j := jobs[i]
		lk := workload.NewLocking(128*nodes, 0)
		sys, release := leaseSystem(o, core.Config{
			Protocol:         j.p,
			Nodes:            nodes,
			BandwidthMBs:     j.bw,
			Seed:             21,
			WatchdogInterval: o.watchdogInterval(),
			Preheat:          lk.WarmBlocks(),
		})
		defer release()
		sys.AttachWorkload(func(network.NodeID) core.Workload { return lk })
		m := sys.Measure(warm, measure)
		st := sys.CacheStats()
		hitRate := "-"
		if st.Predicted > 0 {
			hitRate = fmt.Sprintf("%.2f", float64(st.PredictedHits)/float64(st.Predicted))
		}
		retriesPerOp := float64(m.Retries) / float64(m.Ops+1)
		return []string{
			j.p.String(), fmt.Sprintf("%g", j.bw),
			fmt.Sprintf("%.5f", m.Throughput),
			fmt.Sprintf("%.0f", m.AvgMissLatency),
			fmt.Sprintf("%.3f", retriesPerOp),
			hitRate,
		}, nil
	})
	if err != nil {
		panic(abort{err})
	}
	t.Rows = rows
	return t
}
