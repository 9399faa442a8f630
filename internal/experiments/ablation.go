package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Ablation separates the value of adaptivity from the hybrid engine. With
// its choice fixed, BASH's machinery behaves like one of the base protocols
// (Section 3.3), so the ablation forces it to always-broadcast or
// always-unicast and runs both against the adaptive policy at low, mid and
// high bandwidth. It adds the sampling-interval and policy-counter-width
// sensitivity the paper discusses in Section 2.2.
func Ablation(o Options) *TableResult {
	warm, measure := o.ops()
	nodes := 16
	t := &TableResult{
		ID:    "ablation",
		Title: "BASH design-choice ablations (locking microbenchmark, 16 processors)",
		Columns: []string{
			"variant", "bandwidth (MB/s)", "throughput (ops/ns)",
			"bcast frac", "utilization", "retries",
		},
		Notes: []string{
			"adaptive vs. static masks: the hybrid engine with a static choice recovers the",
			"base protocols; adaptivity is what wins the mid-range",
		},
	}
	// Collect the variant list up front, fan the independent simulations
	// out through the runner, and fold the rows back in declaration order.
	type variant struct {
		label string
		rc    runConfig
	}
	var vs []variant
	for _, bw := range []float64{400, 1600, 8000} {
		for _, v := range []struct {
			label string
			p     core.Protocol
		}{
			{"BASH adaptive", core.BASH},
			{"BASH always-broadcast", core.BashAlwaysBroadcast},
			{"BASH always-unicast", core.BashAlwaysUnicast},
		} {
			vs = append(vs, variant{v.label, runConfig{
				protocol: v.p, nodes: nodes, bandwidth: bw,
				seed: 11, warm: warm, measure: measure,
				watchdog: o.WatchdogInterval,
			}})
		}
	}
	// Sampling-interval sensitivity (paper: smaller reacts faster but risks
	// oscillation) and policy-counter width at mid bandwidth.
	for _, iv := range []sim.Time{64, 512, 4096} {
		vs = append(vs, variant{fmt.Sprintf("BASH interval=%d", iv), runConfig{
			protocol: core.BASH, nodes: nodes, bandwidth: 1600,
			interval: iv, seed: 11, warm: warm, measure: measure,
			watchdog: o.WatchdogInterval,
		}})
	}
	for _, bits := range []uint{4, 8, 12} {
		vs = append(vs, variant{fmt.Sprintf("BASH policy-bits=%d", bits), runConfig{
			protocol: core.BASH, nodes: nodes, bandwidth: 1600,
			policyBits: bits, seed: 11, warm: warm, measure: measure,
			watchdog: o.WatchdogInterval,
		}})
	}
	label := func(i int) string { return "ablation " + vs[i].label }
	rcs := make([]runConfig, len(vs))
	for i, v := range vs {
		rcs[i] = v.rc
	}
	ms := runCells(o, rcs, label)
	for i, v := range vs {
		m := ms[i]
		t.Rows = append(t.Rows, []string{
			v.label, fmt.Sprintf("%g", v.rc.bandwidth),
			fmt.Sprintf("%.5f", m.Throughput),
			fmt.Sprintf("%.2f", m.BroadcastFraction),
			fmt.Sprintf("%.2f", m.Utilization),
			fmt.Sprint(m.Retries),
		})
	}
	return t
}
