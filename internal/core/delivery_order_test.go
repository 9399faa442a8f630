package core_test

// Cross-commit event-order oracle. Every other determinism test compares
// two runs of one binary, so a change that reorders simulator events the
// same way every time passes them all. This test pins the delivery order
// itself: it digests the full delivery trace of short runs across the four
// request-network users (Snooping, Directory, BASH, BASH-pred), two system
// sizes, both broadcast costs and with and without traversal jitter, plus
// the quick-scale Figure 1 TSV, and compares the digests with
// testdata/delivery_order.golden. A simulator restructuring that claims to
// keep results identical must pass it unchanged.
//
// Regenerate with UPDATE_GOLDEN=1 go test -run TestDeliveryOrderGolden
// ./internal/core/ — only in a change that means to alter event order.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/workload"
)

// deliveryTraceDigest runs one short OLTP cell with tracing on and returns
// the SHA-256 of its rendered delivery trace. Bandwidth is scarce and the
// cache small, so inbound channels queue, grants differ per node, and
// evictions put writebacks on the wire. A narrow, fast-sampling policy
// counter lets BASH leave all-broadcast within the short run, so its
// traces (and the predictor's) differ from Snooping's.
func deliveryTraceDigest(p core.Protocol, nodes int, cost float64, jitter int) string {
	sys := core.NewSystem(core.Config{
		Protocol:         p,
		Nodes:            nodes,
		BandwidthMBs:     300,
		BroadcastCost:    cost,
		Cache:            cache.Config{Sets: 64, Ways: 4},
		Adaptive:         adaptive.Config{Interval: 128, PolicyBits: 4},
		EnableChecker:    true,
		WatchdogInterval: 50_000_000,
		Seed:             7,
		JitterNs:         jitter,
	})
	wl := workload.OLTP()
	for i, a := range wl.WarmBlocks()[:8*nodes] {
		sys.PreheatOwned(a, network.NodeID(i%nodes), uint64(i)+1)
	}
	sys.AttachWorkload(func(network.NodeID) core.Workload { return wl })
	tr := sys.EnableTrace()
	sys.Measure(uint64(16*nodes), uint64(24*nodes))
	return fmt.Sprintf("%x", sha256.Sum256([]byte(tr.String())))
}

// deliveryDigests computes every named digest the golden file pins, in
// file order.
func deliveryDigests() []string {
	var lines []string
	for _, p := range []core.Protocol{core.Snooping, core.Directory, core.BASH, core.BashPredictive} {
		for _, nodes := range []int{16, 64} {
			for _, cost := range []float64{1, 4} {
				for _, jitter := range []int{0, 40} {
					name := fmt.Sprintf("trace/%s/%dp/%gx/jitter%d", p, nodes, cost, jitter)
					lines = append(lines, name+" "+deliveryTraceDigest(p, nodes, cost, jitter))
				}
			}
		}
	}
	fig1 := experiments.Fig1(experiments.Options{Scale: experiments.Quick, Parallel: 1})
	lines = append(lines, fmt.Sprintf("tsv/fig1/quick %x", sha256.Sum256([]byte(fig1.TSV()))))
	return lines
}

// TestDeliveryOrderGolden: the simulator delivers every message at the
// same time and in the same order as the commit that wrote the golden.
func TestDeliveryOrderGolden(t *testing.T) {
	got := strings.Join(deliveryDigests(), "\n") + "\n"
	path := filepath.Join("testdata", "delivery_order.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("delivery order differs from %s (regenerate with UPDATE_GOLDEN=1 only if the order change is intended)\ngot:\n%s", path, got)
	}
}
