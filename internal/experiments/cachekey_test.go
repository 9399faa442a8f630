package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
)

// sprintfKey is the fmt form cacheKey's appends must reproduce byte for
// byte: entries written under it stay addressable.
func sprintfKey(rc runConfig) string {
	wd := rc.watchdog
	if wd == 0 {
		wd = defaultWatchdogInterval
	}
	return fmt.Sprintf("bashsim-cell-v%d|bin=%s|proto=%d|nodes=%d|bw=%g|bcost=%g|think=%d|wl=%q|thresh=%d|interval=%d|bits=%d|seed=%d|warm=%d|measure=%d|watchdog=%d",
		cellFormat, cellstore.Fingerprint(), int(rc.protocol), rc.nodes, rc.bandwidth, rc.broadcastCost,
		rc.think, rc.workloadName, rc.threshold, rc.interval, rc.policyBits,
		rc.seed, rc.warm, rc.measure, wd)
}

// recordingBackend records every dispatched cell and answers each with
// zero Metrics, so a whole experiment's grid is enumerated without
// simulating it.
type recordingBackend struct{ cells *[]runConfig }

func (r recordingBackend) Run(jobs []runner.Job, _ runner.Options) ([][]byte, error) {
	outs := make([][]byte, len(jobs))
	for i, j := range jobs {
		var cs cellSpec
		if err := gobDecode(j.Spec, &cs); err != nil {
			return nil, err
		}
		*r.cells = append(*r.cells, cs.runConfig())
		out, err := gobEncode(core.Metrics{})
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// TestCacheKeyMatchesSprintf: the appended key equals the Sprintf oracle
// for every cell the quick-scale experiments dispatch, for %g and %q edge
// values, and for thousands of random configurations.
func TestCacheKeyMatchesSprintf(t *testing.T) {
	var grid []runConfig
	ResetMemo()
	for _, id := range IDs() {
		if _, err := Run(id, Options{Backend: recordingBackend{&grid}}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	ResetMemo() // the recorded zero Metrics must not serve later tests
	if len(grid) < 100 {
		t.Fatalf("quick experiments dispatched only %d cells", len(grid))
	}

	floats := []float64{0, 0.5, 1, 4, 100, 1600, 14000, 1e20, 1e21, 1e-5, 1e-7,
		123456789012345678, math.Copysign(0, -1), -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64}
	names := []string{"", "OLTP", "Migratory", `quo"te`, `back\slash`, "tab\there", "new\nline",
		"ünïcödé", "\x00\x7f\xff", " "}
	var edge []runConfig
	for i, f := range floats {
		edge = append(edge, runConfig{bandwidth: f, broadcastCost: floats[(i+3)%len(floats)],
			workloadName: names[i%len(names)], watchdog: sim.Time(i)})
	}
	edge = append(edge, runConfig{protocol: -1, nodes: math.MinInt, think: math.MinInt64,
		threshold: math.MaxInt, interval: math.MaxInt64, policyBits: math.MaxUint,
		seed: math.MaxUint64, warm: math.MaxUint64, measure: 1, watchdog: -1})

	rng := rand.New(rand.NewSource(1))
	random := make([]runConfig, 5000)
	for i := range random {
		random[i] = runConfig{
			protocol:      core.Protocol(rng.Intn(3)),
			nodes:         rng.Intn(300),
			bandwidth:     floats[rng.Intn(len(floats))] * float64(rng.Intn(3)),
			broadcastCost: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)),
			think:         sim.Time(rng.Int63()),
			workloadName:  names[rng.Intn(len(names))],
			threshold:     rng.Intn(101) - 1,
			interval:      sim.Time(rng.Intn(1 << 20)),
			policyBits:    uint(rng.Intn(64)),
			seed:          rng.Uint64(),
			warm:          rng.Uint64() >> rng.Intn(64),
			measure:       rng.Uint64() >> rng.Intn(64),
			watchdog:      sim.Time(rng.Intn(2) * rng.Intn(1e9)),
		}
	}

	for _, set := range [][]runConfig{grid, edge, random} {
		for _, rc := range set {
			if got, want := rc.cacheKey(), sprintfKey(rc); got != want {
				t.Fatalf("cacheKey differs from the Sprintf form:\n got  %s\n want %s", got, want)
			}
		}
	}
}
