package network

// Tests for the network's message/task recycling: delivery timing and
// ordering must be bit-identical with recycling on or off, reclamation must
// never touch a message before its last handler returns, and in-flight
// traffic must survive a mid-flight Channel.Reset (the channel only
// accounts bandwidth; it owns no message state).

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// capture records delivery observations BY VALUE — under Config.Recycle a
// handler must not retain *Message past the Deliver call.
type capture struct {
	kernel *sim.Kernel
	events []capturedDelivery
}

type capturedDelivery struct {
	at      sim.Time
	ordered bool
	seq     uint64
	from    NodeID
	payload any
}

func (c *capture) DeliverOrdered(m *Message) {
	c.events = append(c.events, capturedDelivery{c.kernel.Now(), true, m.Seq, m.From, m.Payload})
}

func (c *capture) DeliverUnordered(m *Message) {
	c.events = append(c.events, capturedDelivery{c.kernel.Now(), false, 0, m.From, m.Payload})
}

// drive runs a fixed mixed workload — jittered ordered multicasts and
// unordered unicasts from several senders — and returns every node's
// captured delivery stream.
func drive(recycle bool) [][]capturedDelivery {
	const nodes = 5
	k := sim.NewKernel()
	n := New(k, Config{
		Nodes:        nodes,
		BandwidthMBs: 800,
		JitterNs:     137,
		JitterSeed:   42,
		Recycle:      recycle,
	})
	caps := make([]*capture, nodes)
	for i := range caps {
		caps[i] = &capture{kernel: k}
		n.SetHandler(NodeID(i), caps[i])
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 300; i++ {
		src := NodeID(rng.Intn(nodes))
		id := i
		delay := sim.Time(rng.Intn(900))
		if i%3 == 0 {
			dst := NodeID(rng.Intn(nodes))
			k.Schedule(delay, func() { n.SendUnordered(src, dst, 72, id) })
		} else {
			k.Schedule(delay, func() { n.SendOrdered(src, n.FullMask(), 8, id) })
		}
	}
	k.Drain()
	out := make([][]capturedDelivery, nodes)
	for i, c := range caps {
		out[i] = c.events
	}
	return out
}

// TestRecycleDeliveryDeterminism: the same traffic produces bit-identical
// delivery streams (times, sequence numbers, payloads, at every node) with
// message recycling on and off — recycling changes allocation behaviour
// only, never timing or order.
func TestRecycleDeliveryDeterminism(t *testing.T) {
	off := drive(false)
	on := drive(true)
	for node := range off {
		if len(off[node]) != len(on[node]) {
			t.Fatalf("node %d: %d deliveries recycled vs %d fresh", node, len(on[node]), len(off[node]))
		}
		for i := range off[node] {
			if off[node][i] != on[node][i] {
				t.Fatalf("node %d delivery %d differs:\n fresh:    %+v\n recycled: %+v",
					node, i, off[node][i], on[node][i])
			}
		}
	}
}

// TestRecycledMessagesReclaimed: with recycling on, a steady stream reuses
// Message records instead of allocating one per delivery.
func TestRecycledMessagesReclaimed(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Config{Nodes: 2, BandwidthMBs: 100000, Recycle: true})
	for i := 0; i < 2; i++ {
		n.SetHandler(NodeID(i), &capture{kernel: k})
	}
	// Warm: one round trip materializes the free lists.
	n.SendOrdered(0, n.FullMask(), 8, nil)
	n.SendUnordered(0, 1, 72, nil)
	k.Drain()
	allocs := testing.AllocsPerRun(10, func() {
		n.SendOrdered(0, n.FullMask(), 8, nil)
		n.SendUnordered(0, 1, 72, nil)
		k.Drain()
	})
	if allocs != 0 {
		t.Errorf("warmed network allocates %.1f per send+deliver round, want 0", allocs)
	}
}

// TestInFlightSurvivesChannelReset: resetting the endpoint channels while
// messages are in flight must not corrupt or lose them — channels account
// bandwidth, the kernel owns the deliveries. (The simulation resets
// channels only between runs; this pins the seam anyway.)
func TestInFlightSurvivesChannelReset(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Config{Nodes: 3, BandwidthMBs: 1600, Recycle: true})
	caps := make([]*capture, 3)
	for i := range caps {
		caps[i] = &capture{kernel: k}
		n.SetHandler(NodeID(i), caps[i])
	}
	n.SendOrdered(0, n.FullMask(), 8, "ordered-payload")
	n.SendUnordered(1, 2, 72, "unordered-payload")
	// Reset every channel while both messages are still in flight.
	k.Schedule(10, func() {
		for i := 0; i < 3; i++ {
			n.InChannel(NodeID(i)).Reset(1600)
			n.OutChannel(NodeID(i)).Reset(1600)
		}
	})
	k.Drain()
	for i, c := range caps {
		var ordered, unordered int
		for _, e := range c.events {
			if e.ordered {
				ordered++
				if e.payload != "ordered-payload" {
					t.Errorf("node %d: ordered payload corrupted: %v", i, e.payload)
				}
			} else {
				unordered++
				if e.payload != "unordered-payload" {
					t.Errorf("node %d: unordered payload corrupted: %v", i, e.payload)
				}
			}
		}
		if ordered != 1 {
			t.Errorf("node %d got %d ordered deliveries, want 1", i, ordered)
		}
		if i == 2 && unordered != 1 {
			t.Errorf("node 2 got %d unordered deliveries, want 1", unordered)
		}
	}
}

// burst schedules a fixed mix of delayed sends — full and partial ordered
// multicasts and unordered unicasts from every node — replayed exactly on
// each call: rng is reseeded and the payloads are small ints, which box
// without allocating.
func burst(n *Network, rng *sim.RNG) {
	rng.Reseed(7)
	nodes := n.Nodes()
	for i := 0; i < 200; i++ {
		src := NodeID(rng.Intn(nodes))
		delay := sim.Time(rng.Intn(900))
		switch i % 3 {
		case 0:
			n.SendUnorderedDelayed(delay, src, NodeID(rng.Intn(nodes)), 72, i%256)
		case 1:
			n.SendOrderedDelayed(delay, src, n.FullMask(), 8, i%256)
		default:
			n.SendOrderedDelayed(delay, src, MaskOf(src, NodeID(rng.Intn(nodes))), 8, i%256)
		}
	}
}

// TestResetReclaimsInFlight: a Network reset while ordered and unordered
// messages are in flight takes back every task and Message they held. The
// next run allocates nothing and delivers exactly what a fresh network
// delivers, at every node.
func TestResetReclaimsInFlight(t *testing.T) {
	const nodes = 5
	cfg := Config{Nodes: nodes, BandwidthMBs: 800, JitterNs: 137, JitterSeed: 42, Recycle: true}
	build := func() (*sim.Kernel, *Network, []*capture) {
		k := sim.NewKernel()
		n := New(k, cfg)
		caps := make([]*capture, nodes)
		for i := range caps {
			caps[i] = &capture{kernel: k, events: make([]capturedDelivery, 0, 512)}
			n.SetHandler(NodeID(i), caps[i])
		}
		return k, n, caps
	}
	rng := sim.NewRNG(0)

	k, n, want := build()
	burst(n, rng)
	k.Drain()

	k, n, got := build()
	burst(n, rng) // a full run grows the free lists to the burst's needs
	k.Drain()
	// Abandon the next run once ordered and unordered messages are both
	// in flight.
	inFlight := func() bool {
		var ordered, unordered bool
		for _, m := range n.allMsgs {
			ordered = ordered || (m.remaining > 0 && m.Seq > 0)
			unordered = unordered || (m.remaining > 0 && m.Seq == 0)
		}
		return ordered && unordered
	}
	burst(n, rng)
	k.RunUntil(inFlight)
	if !inFlight() {
		t.Fatal("the run ended before ordered and unordered messages were both in flight")
	}
	k.Reset() // the kernel first: it drops the events that hold the records
	n.Reset(cfg)
	for _, c := range got {
		c.events = c.events[:0]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst(n, rng)
	k.Drain()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("run after a mid-flight reset allocated %d times, want 0", allocs)
	}
	for node := range want {
		w, g := want[node].events, got[node].events
		if len(g) != len(w) {
			t.Fatalf("node %d: %d deliveries after reset, %d fresh", node, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("node %d delivery %d differs:\n fresh:       %+v\n after reset: %+v", node, i, w[i], g[i])
			}
		}
	}
}
