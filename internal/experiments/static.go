package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/queueing"
	"repro/internal/workload"
)

// TextResult is a free-form reproduced artifact (message-sequence charts).
type TextResult struct {
	ID    string
	Title string
	Body  string
}

// TSV renders the text result with a header comment.
func (t *TextResult) TSV() string {
	return fmt.Sprintf("# %s: %s\n%s", t.ID, t.Title, t.Body)
}

// Table1 reproduces Table 1: states, events and transitions per protocol,
// derived by introspecting this implementation's transition tables. The
// absolute counts depend on how a protocol is expressed (the paper says as
// much); the signal is the ratio: BASH needs roughly half again as many
// events and about twice the transitions of either base protocol.
func Table1(o Options) *TableResult {
	t := &TableResult{
		ID:    "table1",
		Title: "States, events, and transitions for BASH, Snooping, and Directory",
		Columns: []string{
			"Protocol",
			"Total states", "Total events", "Total transitions",
			"Cache states", "Cache events", "Cache trans.",
			"Mem/Dir states", "Mem/Dir events", "Mem/Dir trans.",
		},
		Notes: []string{
			"counts introspected from this implementation's transition tables",
			"paper's counts (its own encoding): BASH 21/23/114, Snooping 19/13/68, Directory 21/13/75",
		},
	}
	for _, p := range []core.Protocol{core.BASH, core.Snooping, core.Directory} {
		sys := core.NewSystem(core.Config{Protocol: p, Nodes: 2})
		row := coherence.Complexity(p.String(), sys.Nodes[0].Cache.Table(), sys.Nodes[0].Mem.Table())
		t.Rows = append(t.Rows, []string{
			row.Protocol,
			fmt.Sprint(row.TotalStates), fmt.Sprint(row.TotalEvents), fmt.Sprint(row.TotalTransitions),
			fmt.Sprint(row.CacheStates), fmt.Sprint(row.CacheEvents), fmt.Sprint(row.CacheTransitions),
			fmt.Sprint(row.MemStates), fmt.Sprint(row.MemEvents), fmt.Sprint(row.MemTransitions),
		})
	}
	return t
}

// Fig2 reproduces Figure 2: average queueing delay vs. utilization of the
// closed queueing model (N=16, S~exp(1), Z~exp(varies)), analytically and
// by simulation.
func Fig2(o Options) *Figure {
	points := 12
	completions := 20000
	if o.Scale == Full {
		points = 24
		completions = 200000
	}
	f := &Figure{
		ID:     "fig2",
		Title:  "Average queueing delay vs. utilization (closed queue, N=16, S~exp(1))",
		XLabel: "utilization (percent)",
		YLabel: "average queueing delay (service times)",
		Notes:  []string{"the knee of this curve motivates the 75% utilization target"},
	}
	ana := Series{Name: "analytic"}
	simu := Series{Name: "simulated"}
	for _, r := range queueing.Sweep(16, points) {
		x := 100 * r.Utilization
		ana.X = append(ana.X, x)
		ana.Y = append(ana.Y, r.QueueDelay)
		ana.Err = append(ana.Err, 0)
		sr := queueing.Simulate(16, r.MeanThink, completions, 42)
		simu.X = append(simu.X, x)
		simu.Y = append(simu.Y, sr.QueueDelay)
		simu.Err = append(simu.Err, 0)
	}
	f.Series = append(f.Series, ana, simu)
	return f
}

// Fig3 reproduces Figure 3: the example operation of the utilization
// counter (4 busy cycles of 7 at a 75% threshold gives a negative sample),
// plus the policy counter integrating a persistent overload.
func Fig3(o Options) *TableResult {
	t := &TableResult{
		ID:      "fig3",
		Title:   "Example operation of the utilization counter (threshold 75%)",
		Columns: []string{"cycle", "link", "counter"},
		Notes: []string{
			"paper increments +1/busy and -3/idle at 75%; this implementation scales",
			"both by 25 (+25/-75), preserving the sign the sampler uses",
			"4 busy cycles of 7 (57%) ends at -125 = 25 x the paper's -5",
		},
	}
	u := adaptive.NewUtilizationCounter(75, 0)
	pattern := []bool{true, false, true, true, false, false, true} // 4 of 7 busy
	for i, busy := range pattern {
		u.Tick(busy)
		link := "idle"
		if busy {
			link = "busy"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(i + 1), link, fmt.Sprint(u.Value())})
	}
	above := u.SampleAndReset()
	t.Rows = append(t.Rows, []string{"sample", fmt.Sprintf("above-threshold=%v", above), fmt.Sprint(u.Value())})
	return t
}

// Fig4 reproduces Figure 4: message-sequence walkthroughs of a
// memory-to-cache transfer and a cache-to-cache transfer (with an
// invalidation) for Snooping, Directory, BASH broadcast and BASH unicast.
func Fig4(o Options) *TextResult {
	var b strings.Builder
	scenarios := []struct {
		name string
		p    core.Protocol
	}{
		{"Snooping (broadcast)", core.Snooping},
		{"Directory", core.Directory},
		{"BASH broadcast", core.BashAlwaysBroadcast},
		{"BASH unicast", core.BashAlwaysUnicast},
	}
	for _, sc := range scenarios {
		fmt.Fprintf(&b, "== %s: memory-to-cache transfer (P0 GetM, memory owner) ==\n", sc.name)
		b.WriteString(fig4Trace(sc.p, false))
		fmt.Fprintf(&b, "\n== %s: cache-to-cache transfer (P0 GetM; P1 owner, P3 sharer) ==\n", sc.name)
		b.WriteString(fig4Trace(sc.p, true))
		b.WriteByte('\n')
	}
	return &TextResult{
		ID:    "fig4",
		Title: "Protocol transaction walkthroughs (4 processors, home at node 2)",
		Body:  b.String(),
	}
}

// fig4Trace runs one transaction and returns its message-sequence chart.
func fig4Trace(p core.Protocol, cacheToCache bool) string {
	sys := core.NewSystem(core.Config{
		Protocol:      p,
		Nodes:         4,
		BandwidthMBs:  100000,
		EnableChecker: true,
	})
	// Block 2 is homed at node 2, leaving P0 (requestor), P1 (owner) and
	// P3 (sharer) in the paper's roles.
	addr := coherence.Addr(2)
	if cacheToCache {
		sys.PreheatOwned(addr, 1, 7)
		// P3 obtains an S copy organically (GetS), downgrading P1 to O.
		done := false
		sys.Nodes[3].Cache.Access(coherence.Op{Addr: addr}, func() { done = true })
		sys.Kernel.RunUntil(func() bool { return done })
		sys.Kernel.Run(sys.Kernel.Now() + 2000)
	}
	tr := sys.EnableTrace()
	done := false
	sys.Nodes[0].Cache.Access(coherence.Op{Store: true, Addr: addr}, func() { done = true })
	sys.Kernel.RunUntil(func() bool { return done })
	start := sys.Kernel.Now()
	sys.Kernel.Run(start + 500) // let trailing messages land
	return tr.String()
}

// Stability compares the probabilistic adaptive mechanism with the
// all-or-nothing switch ablation the paper reports as unstable
// (Section 2.1): it reports the per-sample variance of the broadcast
// probability in the contended mid-range.
func Stability(o Options) *TableResult {
	warm, measure := o.ops()
	t := &TableResult{
		ID:      "stability",
		Title:   "Probabilistic vs. all-or-nothing adaptation (mid-range bandwidth)",
		Columns: []string{"mechanism", "throughput (ops/ns)", "mean unicast prob", "prob std-dev", "flips"},
		Notes: []string{
			"the switch mechanism oscillates between 0% and 100% broadcast;",
			"the probabilistic policy counter settles to an intermediate mix (Section 2.1)",
		},
	}
	for _, p := range []core.Protocol{core.BASH, core.BashSwitch} {
		lk := workload.NewLocking(128*16, 0)
		sys, release := leaseSystem(o, core.Config{
			Protocol:         p,
			Nodes:            16,
			BandwidthMBs:     1200,
			Seed:             5,
			WatchdogInterval: o.watchdogInterval(),
			Preheat:          warmSet(warmKey{locks: lk.Locks}, lk),
		})
		sys.AttachWorkload(func(network.NodeID) core.Workload { return lk })
		sys.Start()
		sys.Kernel.RunUntil(func() bool { return sys.TotalOps() >= warm })
		// Sample node 0's unicast probability every interval.
		var probs []float64
		flips := 0
		stop := false
		var tick func()
		tick = func() {
			if stop {
				return
			}
			pr := sys.Nodes[0].Adaptive.UnicastProbability()
			if n := len(probs); n > 0 && (probs[n-1] < 0.5) != (pr < 0.5) {
				flips++
			}
			probs = append(probs, pr)
			sys.Kernel.Schedule(512, tick)
		}
		sys.Kernel.Schedule(512, tick)
		sys.Kernel.RunUntil(func() bool { return sys.TotalOps() >= warm+measure })
		stop = true
		// Capture the clock before quiescing: draining fires the parked
		// watchdog event, which would inflate the elapsed time.
		elapsed := float64(sys.Kernel.Now())
		ops := float64(sys.TotalOps())
		sys.Quiesce()
		mean, sd := meanStd(probs)
		thr := ops / elapsed
		release()
		t.Rows = append(t.Rows, []string{
			p.String(), fmt.Sprintf("%.5f", thr),
			fmt.Sprintf("%.3f", mean), fmt.Sprintf("%.3f", sd), fmt.Sprint(flips),
		})
	}
	return t
}

func meanStd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)))
}
