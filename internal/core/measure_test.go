package core_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cellstore"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/workload"
)

func measuredSystem(t *testing.T, p core.Protocol, bw float64) (*core.System, core.Metrics) {
	t.Helper()
	const nodes = 8
	sys := core.NewSystem(core.Config{
		Protocol:         p,
		Nodes:            nodes,
		BandwidthMBs:     bw,
		EnableChecker:    true,
		WatchdogInterval: 50_000_000,
	})
	lk := workload.NewLocking(64*nodes, 0)
	for i, a := range lk.WarmBlocks() {
		sys.PreheatOwned(a, network.NodeID(i%nodes), uint64(i)+1)
	}
	sys.AttachWorkload(func(network.NodeID) core.Workload { return lk })
	return sys, sys.Measure(500, 2500)
}

// TestMeasureWindowAccounting: the measurement window must contain exactly
// the requested operations and internally consistent rates.
func TestMeasureWindowAccounting(t *testing.T) {
	_, m := measuredSystem(t, core.Snooping, 1600)
	if m.Ops < 2500 {
		t.Fatalf("ops = %d, want >= 2500", m.Ops)
	}
	if m.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	got := float64(m.Ops) / float64(m.Elapsed)
	if got != m.Throughput {
		t.Fatalf("throughput %v != ops/elapsed %v", m.Throughput, got)
	}
	if m.BroadcastFraction != 1 {
		t.Fatalf("snooping broadcast fraction = %v", m.BroadcastFraction)
	}
}

// TestTrafficBreakdown: snooping traffic on a sharing-miss workload is
// requests + data; the data share per op is ~72 bytes plus writebacks.
func TestTrafficBreakdown(t *testing.T) {
	sys, m := measuredSystem(t, core.Snooping, 1600)
	tr := sys.Traffic()
	if tr.Bytes[coherence.GetM] == 0 {
		t.Fatal("no GetM traffic recorded")
	}
	if tr.Bytes[coherence.Data] == 0 {
		t.Fatal("no data traffic recorded")
	}
	if tr.TotalBytes() != tr.ControlBytes()+tr.DataBytes() {
		t.Fatal("traffic breakdown does not sum")
	}
	// A lock acquire that misses costs one broadcast (8 B to each of 8
	// nodes) plus one 72 B data delivery = 136 B; one pick in eight is the
	// processor's own lock (a hit, no traffic), so ~119 B per operation.
	if m.BytesPerOp < 110 || m.BytesPerOp > 145 {
		t.Fatalf("bytes/op = %.0f, want ~119", m.BytesPerOp)
	}
	if !strings.Contains(tr.String(), "Data") {
		t.Fatal("traffic String missing Data row")
	}
}

// TestTrafficStringDeterministic: the breakdown lists kinds by bytes,
// largest first, breaks ties in kind order, and omits kinds with no
// messages, so equal counts always print identically.
func TestTrafficStringDeterministic(t *testing.T) {
	var tr core.TrafficStats
	tr.Messages[coherence.Data], tr.Bytes[coherence.Data] = 1, 72
	for _, k := range []coherence.Kind{coherence.Nack, coherence.GetS, coherence.Ack, coherence.Inval, coherence.GetM, coherence.Marker} {
		tr.Messages[k], tr.Bytes[k] = 2, 16
	}
	want := "Data: 1 msgs, 72 B\n" +
		"GetS: 2 msgs, 16 B\n" +
		"GetM: 2 msgs, 16 B\n" +
		"Inval: 2 msgs, 16 B\n" +
		"Marker: 2 msgs, 16 B\n" +
		"Ack: 2 msgs, 16 B\n" +
		"Nack: 2 msgs, 16 B\n"
	if got := tr.String(); got != want {
		t.Fatalf("traffic breakdown:\n%s\nwant:\n%s", got, want)
	}
}

// TestDirectoryTrafficLighter: on the same workload, Directory must move
// fewer request-network bytes per op than Snooping (the paper's bandwidth
// argument), while BASH sits between.
func TestDirectoryTrafficLighter(t *testing.T) {
	_, ms := measuredSystem(t, core.Snooping, 1600)
	_, md := measuredSystem(t, core.Directory, 1600)
	if md.ControlBytesPerOp >= ms.ControlBytesPerOp {
		t.Fatalf("directory control bytes/op %.0f should undercut snooping %.0f",
			md.ControlBytesPerOp, ms.ControlBytesPerOp)
	}
}

// TestPendedDemandAfterWriteback: a demand access to a block whose
// writeback is still in flight must wait for the writeback and then fetch.
func TestPendedDemandAfterWriteback(t *testing.T) {
	for _, p := range protocolsUnderTest {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			sys := core.NewSystem(core.Config{
				Protocol:         p,
				Nodes:            4,
				BandwidthMBs:     2000,
				EnableChecker:    true,
				WatchdogInterval: 10_000_000,
				Cache:            cacheTiny(),
			})
			const a = coherence.Addr(4) // set 0
			sys.PreheatOwned(a, 0, 0x9)
			sys.PreheatOwned(12, 0, 0xA) // fills set 0's second way
			// Store to 20 (set 0) evicts LRU block 4 -> writeback; then an
			// immediate load of 4 must pend behind the writeback.
			d1 := access(sys, 0, true, 20)
			d2 := access(sys, 0, false, a)
			waitAll(t, sys, d1, d2)
			sys.Quiesce()
			if st := sys.Nodes[0].Cache.StateOf(a); st != coherence.Shared {
				t.Fatalf("refetched block state %v, want S", st)
			}
			if got := sys.Nodes[0].Cache.ValueOf(a); got != 0x9 {
				t.Fatalf("refetched value %x, want 0x9 (via memory)", got)
			}
		})
	}
}

// TestMetricsString is a smoke test for the human-readable summary.
func TestMetricsString(t *testing.T) {
	_, m := measuredSystem(t, core.BASH, 1600)
	s := m.String()
	if !strings.Contains(s, "BASH") || !strings.Contains(s, "ops/ns") {
		t.Fatalf("summary %q", s)
	}
}

// TestMetricsCellRecordBitExact: Metrics goes through a cell store's Put
// and Get bit for bit — a NaN payload, -0, ±Inf and all-ones counters
// included, which an == comparison could not tell apart — its record is
// the fixed 88 bytes, and any other length is refused.
func TestMetricsCellRecordBitExact(t *testing.T) {
	in := core.Metrics{
		Protocol:          core.Protocol(-1),
		Ops:               math.MaxUint64,
		Elapsed:           math.MinInt64,
		Throughput:        math.Float64frombits(0x7ff8_0000_dead_beef), // NaN with a payload
		AvgMissLatency:    math.Copysign(0, -1),
		Utilization:       math.Inf(1),
		BroadcastFraction: math.Inf(-1),
		Retries:           math.MaxUint64,
		Nacks:             math.MaxUint64 - 1,
		BytesPerOp:        math.NaN(),
		ControlBytesPerOp: math.SmallestNonzeroFloat64,
	}
	st, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", in); err != nil {
		t.Fatal(err)
	}
	var out core.Metrics
	if !st.Get("k", &out) {
		t.Fatal("miss after Put")
	}
	want, _ := in.AppendCell(nil)
	got, _ := out.AppendCell(nil)
	if len(want) != 88 || !bytes.Equal(got, want) {
		t.Fatalf("record changed in the round trip:\n got  %x\n want %x", got, want)
	}
	if !math.Signbit(out.AvgMissLatency) || out.AvgMissLatency != 0 {
		t.Errorf("-0 came back as %v", out.AvgMissLatency)
	}
	if out.Ops != math.MaxUint64 || out.Retries != math.MaxUint64 || out.Protocol != core.Protocol(-1) || out.Elapsed != math.MinInt64 {
		t.Errorf("integer fields mangled: %+v", out)
	}
	for _, n := range []int{0, 87, 89} {
		rec := make([]byte, n)
		if err := out.DecodeCell(rec); err == nil {
			t.Errorf("a %d-byte record decoded", n)
		}
	}
}
