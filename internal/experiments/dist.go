package experiments

// Distributed cell execution: the bridge between the experiment harness and
// runner.Backend implementations. A simulation cell travels as a gob-encoded
// cellSpec (the exported mirror of runConfig), keyed by the same content
// address the persistent store uses, and comes back as gob-encoded
// core.Metrics. Cells are pure functions of their spec, so a worker
// anywhere produces the exact bytes the in-process pool would have — the
// determinism guarantee every backend inherits.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// CellKind is the job kind of one experiment cell (see runner.Job).
const CellKind = "bashsim.cell"

// cellSpec is the wire form of runConfig: exported fields for gob, nothing
// else. Keep in lockstep with runConfig — cacheKey covers every field, so a
// drift would change content addresses, never silently corrupt results.
type cellSpec struct {
	Protocol      int
	Nodes         int
	Bandwidth     float64
	BroadcastCost float64
	Think         sim.Time
	Workload      string
	Threshold     int
	Interval      sim.Time
	PolicyBits    uint
	Seed          uint64
	Warm, Measure uint64
	Watchdog      sim.Time
}

func (rc runConfig) spec() cellSpec {
	return cellSpec{
		Protocol: int(rc.protocol), Nodes: rc.nodes, Bandwidth: rc.bandwidth,
		BroadcastCost: rc.broadcastCost, Think: rc.think, Workload: rc.workloadName,
		Threshold: rc.threshold, Interval: rc.interval, PolicyBits: rc.policyBits,
		Seed: rc.seed, Warm: rc.warm, Measure: rc.measure, Watchdog: rc.watchdog,
	}
}

func (cs cellSpec) runConfig() runConfig {
	return runConfig{
		protocol: core.Protocol(cs.Protocol), nodes: cs.Nodes, bandwidth: cs.Bandwidth,
		broadcastCost: cs.BroadcastCost, think: cs.Think, workloadName: cs.Workload,
		threshold: cs.Threshold, interval: cs.Interval, policyBits: cs.PolicyBits,
		seed: cs.Seed, warm: cs.Warm, measure: cs.Measure, watchdog: cs.Watchdog,
	}
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// RegisterCellExecutor makes this process able to execute CellKind jobs:
// worker processes (and the in-process runner.LocalBackend) call it at
// startup, and so does a coordinator that co-executes
// (dist.CoordinatorOptions.CoExecute) — its in-process worker runs
// through this same registry. The executor runs each decoded cell through the full
// memo / store / simulate path with the given options, so a worker serves
// cells already in its (shared) store without simulating and publishes
// fresh ones into it — which is what lets an interrupted sweep resume with
// zero re-simulation. Only CacheDir and NoReuse are consulted; everything
// else that shapes a cell travels in the spec.
func RegisterCellExecutor(o Options) {
	runner.RegisterExecutor(CellKind, func(spec []byte) ([]byte, error) {
		var cs cellSpec
		if err := gobDecode(spec, &cs); err != nil {
			return nil, fmt.Errorf("cell spec: %w", err)
		}
		return gobEncode(runMemo(o, cs.runConfig()))
	})
}

// runCells evaluates one simulation cell per runConfig and returns their
// metrics in job order; every sweep and table funnels through here. A sweep
// failure — cancellation, a captured panic, a backend error — aborts the
// enclosing figure via panic(abort{err}), as runner.Map errors always have.
//
// With Options.Backend nil the cells run on the in-process worker pool via
// the memoized direct path. With a Backend, cells the memo or store already
// hold are served locally and only the misses are dispatched as jobs; the
// backend's results are written through both cache layers, so the next
// figure sharing those cells costs no dispatch at all.
func runCells(o Options, rcs []runConfig, label func(i int) string) []core.Metrics {
	if o.Backend == nil {
		ms, err := runner.Map(len(rcs), o.runnerOptions(label),
			func(i int) (core.Metrics, error) { return runMemo(o, rcs[i]), nil })
		if err != nil {
			panic(abort{err})
		}
		return ms
	}

	ms := make([]core.Metrics, len(rcs))
	var miss []int
	for i, rc := range rcs {
		if m, ok := lookupCell(o, rc); ok {
			ms[i] = m
		} else {
			miss = append(miss, i)
		}
	}
	served := len(rcs) - len(miss)
	if o.Progress != nil && served > 0 {
		o.Progress(served, len(rcs))
	}
	if len(miss) == 0 {
		return ms
	}

	jobs := make([]runner.Job, len(miss))
	for k, i := range miss {
		spec, err := gobEncode(rcs[i].spec())
		if err != nil {
			panic(abort{fmt.Errorf("encode %s: %w", label(i), err)})
		}
		jobs[k] = runner.Job{Kind: CellKind, Key: rcs[i].cacheKey(), Label: label(i), Spec: spec}
	}
	opt := o.runnerOptions(func(k int) string { return jobs[k].Label })
	if prog := o.Progress; prog != nil {
		// Report progress over the whole cell list, counting locally
		// served cells as already done.
		opt.Progress = func(done, _ int) { prog(served+done, len(rcs)) }
	}
	outs, err := o.Backend.Run(jobs, opt)
	if err != nil {
		panic(abort{err})
	}
	for k, i := range miss {
		var m core.Metrics
		if err := gobDecode(outs[k], &m); err != nil {
			panic(abort{fmt.Errorf("decode result of %s: %w", jobs[k].Label, err)})
		}
		ms[i] = storeCell(o, rcs[i], jobs[k].Key, m)
	}
	return ms
}
