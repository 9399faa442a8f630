package network

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// recorder collects deliveries per node.
type recorder struct {
	ordered   []*Message
	unordered []*Message
	at        []sim.Time
	kernel    *sim.Kernel
}

func (r *recorder) DeliverOrdered(m *Message) {
	r.ordered = append(r.ordered, m)
	r.at = append(r.at, r.kernel.Now())
}
func (r *recorder) DeliverUnordered(m *Message) { r.unordered = append(r.unordered, m) }

func build(t *testing.T, nodes int, cfg Config) (*sim.Kernel, *Network, []*recorder) {
	t.Helper()
	k := sim.NewKernel()
	cfg.Nodes = nodes
	if cfg.BandwidthMBs == 0 {
		cfg.BandwidthMBs = 1600
	}
	n := New(k, cfg)
	recs := make([]*recorder, nodes)
	for i := range recs {
		recs[i] = &recorder{kernel: k}
		n.SetHandler(NodeID(i), recs[i])
	}
	return k, n, recs
}

func TestUncontendedLatency(t *testing.T) {
	k, n, recs := build(t, 4, Config{BandwidthMBs: 100000})
	n.SendOrdered(0, n.FullMask(), 8, "x")
	k.Schedule(1000, func() { n.SendUnordered(1, 2, 72, "y") })
	k.Drain()
	for i, r := range recs {
		if len(r.ordered) != 1 {
			t.Fatalf("node %d got %d ordered deliveries", i, len(r.ordered))
		}
		if r.at[0] != 50 {
			t.Errorf("node %d delivery at %d, want 50 (cut-through)", i, r.at[0])
		}
	}
	if len(recs[2].unordered) != 1 {
		t.Fatal("unicast not delivered")
	}
}

func TestSerializationCreatesQueueing(t *testing.T) {
	// At 1600 MB/s an 8-byte message occupies a channel for 5 ns; ten
	// back-to-back broadcasts from one sender serialize on the out-channel.
	k, n, recs := build(t, 2, Config{BandwidthMBs: 1600})
	for i := 0; i < 10; i++ {
		n.SendOrdered(0, n.FullMask(), 8, i)
	}
	k.Drain()
	r := recs[1]
	if len(r.ordered) != 10 {
		t.Fatalf("got %d deliveries", len(r.ordered))
	}
	// First at ~50, last at ~50 + 9*5.
	if r.at[9]-r.at[0] < 40 {
		t.Errorf("no serialization spacing: first %d last %d", r.at[0], r.at[9])
	}
	if got := n.OutChannel(0).BusyNs(); got < 49 || got > 51 {
		t.Errorf("out-channel busy %v, want ~50", got)
	}
}

func TestTotalOrderUnderRandomLoad(t *testing.T) {
	k, n, recs := build(t, 8, Config{BandwidthMBs: 400})
	rng := sim.NewRNG(3)
	for i := 0; i < 500; i++ {
		src := NodeID(rng.Intn(8))
		delay := sim.Time(rng.Intn(2000))
		k.Schedule(delay, func() { n.SendOrdered(src, n.FullMask(), 8, nil) })
	}
	k.Drain()
	// Every node must observe the same sequence (the network asserts
	// monotonicity internally; here we check cross-node agreement).
	base := recs[0].ordered
	if len(base) != 500 {
		t.Fatalf("node 0 got %d deliveries", len(base))
	}
	for i, r := range recs[1:] {
		if len(r.ordered) != len(base) {
			t.Fatalf("node %d got %d deliveries", i+1, len(r.ordered))
		}
		for j := range base {
			if r.ordered[j].Seq != base[j].Seq {
				t.Fatalf("node %d delivery %d has seq %d, node 0 has %d",
					i+1, j, r.ordered[j].Seq, base[j].Seq)
			}
		}
	}
}

// TestTotalOrderWithJitter: jitter must neither violate the global total
// order nor reorder one sender's emissions.
func TestTotalOrderWithJitter(t *testing.T) {
	f := func(seed uint64) bool {
		k, n, recs := build(t, 5, Config{BandwidthMBs: 800, JitterNs: 137, JitterSeed: seed})
		rng := sim.NewRNG(seed)
		type sent struct {
			src NodeID
			id  int
		}
		var order []sent
		for i := 0; i < 200; i++ {
			src := NodeID(rng.Intn(5))
			id := i
			delay := sim.Time(rng.Intn(500))
			k.Schedule(delay, func() { n.SendOrdered(src, n.FullMask(), 8, sent{src, id}) })
			order = append(order, sent{src, id})
		}
		k.Drain()
		// Per-sender FIFO: for each sender, payload ids must arrive in
		// issue order at every node. Issue order per sender == schedule
		// time order, which we can't reconstruct here, so instead assert
		// cross-node agreement (the strong property) — per-sender FIFO is
		// covered by the directory protocol tests.
		base := recs[0].ordered
		for _, r := range recs[1:] {
			if len(r.ordered) != len(base) {
				return false
			}
			for j := range base {
				if r.ordered[j].Seq != base[j].Seq {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPerSenderFIFOWithJitter: two messages sent back-to-back by the same
// sender must be sequenced in emission order even when the first draws a
// large jitter.
func TestPerSenderFIFOWithJitter(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		k, n, recs := build(t, 2, Config{BandwidthMBs: 100000, JitterNs: 200, JitterSeed: seed})
		for i := 0; i < 20; i++ {
			n.SendOrdered(0, n.FullMask(), 8, i)
		}
		k.Drain()
		for j, m := range recs[1].ordered {
			if m.Payload.(int) != j {
				t.Fatalf("seed %d: sender emissions reordered: pos %d has payload %v",
					seed, j, m.Payload)
			}
		}
	}
}

func TestBroadcastCostMultiplier(t *testing.T) {
	run := func(cost float64, full bool) float64 {
		k, n, _ := build(t, 4, Config{BandwidthMBs: 1600, BroadcastCost: cost})
		mask := n.FullMask()
		if !full {
			mask = MaskOf(0, 1)
		}
		n.SendOrdered(0, mask, 8, nil)
		k.Drain()
		return n.InChannel(1).BusyNs()
	}
	base := run(1, true)
	quad := run(4, true)
	if quad < 3.9*base || quad > 4.1*base {
		t.Errorf("4x broadcast occupancy = %v, base %v", quad, base)
	}
	// Multicasts (non-full masks) are not scaled.
	m1 := run(1, false)
	m4 := run(4, false)
	if m1 != m4 {
		t.Errorf("multicast occupancy scaled: %v vs %v", m1, m4)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	k, n, _ := build(t, 2, Config{BandwidthMBs: 1600})
	// 20 unordered 72-byte messages into node 1: 45 ns each = 900 ns busy.
	for i := 0; i < 20; i++ {
		n.SendUnordered(0, 1, 72, nil)
	}
	k.Drain()
	busy := n.InChannel(1).BusyNs()
	if busy < 899 || busy > 901 {
		t.Errorf("in-channel busy = %v, want ~900", busy)
	}
	if got := n.InChannel(1).Messages(); got != 20 {
		t.Errorf("messages = %d", got)
	}
	u := n.InChannel(1).Utilization(1800)
	if u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
}

func TestMaskOperations(t *testing.T) {
	m := MaskOf(0, 3, 200)
	if !m.Has(0) || !m.Has(3) || !m.Has(200) || m.Has(1) {
		t.Fatal("Has broken")
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d", m.Count())
	}
	m.Clear(3)
	if m.Has(3) || m.Count() != 2 {
		t.Fatal("Clear broken")
	}
	full := FullMask(16)
	if !m2subset(MaskOf(1, 5), full) {
		t.Fatal("SubsetOf broken")
	}
	if m2subset(MaskOf(1, 17), FullMask(16)) {
		t.Fatal("SubsetOf false positive")
	}
	if got := MaskOf(2, 7).String(); got != "{2,7}" {
		t.Fatalf("String = %q", got)
	}
}

func m2subset(a, b Mask) bool { return a.SubsetOf(b) }

// TestMaskProperties: union/subset/count algebra via testing/quick.
func TestMaskProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b Mask
		for _, x := range xs {
			a.Set(NodeID(x))
		}
		for _, y := range ys {
			b.Set(NodeID(y))
		}
		u := a.Union(b)
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		if u.Count() > a.Count()+b.Count() {
			return false
		}
		// ForEach visits exactly Count elements in ascending order.
		prev := NodeID(-1)
		n := 0
		u.ForEach(func(id NodeID) {
			if id <= prev {
				n = -1 << 20
			}
			prev = id
			n++
		})
		return n == u.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMaskSendPanics(t *testing.T) {
	k, n, _ := build(t, 2, Config{})
	defer func() {
		if recover() == nil {
			t.Error("empty-mask ordered send did not panic")
		}
	}()
	n.SendOrdered(0, Mask{}, 8, nil)
	k.Drain()
}

// TestEventsPerSend pins the kernel cost of one send: an ordered send to k
// targets fires k+2 events (the sequencer stamp, one arrival that seizes
// every target's inbound channel, and one handoff per target), and an
// unordered send fires 2 (arrival and handoff).
func TestEventsPerSend(t *testing.T) {
	for _, mask := range []Mask{MaskOf(3), MaskOf(0, 5, 9), FullMask(16)} {
		k, n, recs := build(t, 16, Config{})
		n.SendOrdered(1, mask, 8, "x")
		k.Drain()
		if got, want := k.Fired(), uint64(mask.Count()+2); got != want {
			t.Errorf("ordered send to %d targets fired %d events, want %d", mask.Count(), got, want)
		}
		delivered := 0
		for _, r := range recs {
			delivered += len(r.ordered)
		}
		if delivered != mask.Count() {
			t.Errorf("ordered send to %d targets made %d deliveries", mask.Count(), delivered)
		}
	}
	k, n, recs := build(t, 16, Config{})
	n.SendUnordered(1, 2, 72, "y")
	k.Drain()
	if got := k.Fired(); got != 2 {
		t.Errorf("unordered send fired %d events, want 2", got)
	}
	if len(recs[2].unordered) != 1 {
		t.Error("unordered message not delivered")
	}
}
