// Package network models the interconnect of the paper's target system: a
// fixed-latency crossbar with limited bandwidth and contention at the
// endpoints (Section 4.2). It provides two virtual networks sharing the
// physical endpoint links:
//
//   - a totally ordered multicast request network (used by Snooping requests,
//     Directory forwarded requests/markers, and all BASH requests), and
//   - an unordered point-to-point network (data responses, Directory
//     requests, acks and nacks).
//
// The total order is realized by a global sequencer: a message is assigned
// its sequence number at the instant it wins its sender's outbound channel,
// and all deliveries observe sequence order at every node. The network is
// asynchronous (deliveries at different nodes happen at different times), as
// the paper requires — only the order is common.
package network

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Message is a delivery handed to a node. Payload carries the
// protocol-level content; the network treats it as opaque.
//
// With Config.Recycle enabled the network reclaims the Message as soon as
// its last delivery handler returns: handlers must not hold a *Message (or
// read it) after DeliverOrdered/DeliverUnordered returns. Payload lifetime
// is the payload owner's concern (see coherence.Recycler).
type Message struct {
	From      NodeID
	Targets   Mask   // ordered-network deliveries only
	To        NodeID // unordered deliveries only
	Seq       uint64 // ordered-network sequence number (0 for unordered)
	Size      int    // bytes
	Broadcast bool   // true if sent to all nodes (cost multiplier applies)
	Payload   any

	// remaining counts undelivered copies; the network recycles the Message
	// when it reaches zero (Config.Recycle only).
	remaining int32
}

// Handler receives deliveries addressed to a node.
type Handler interface {
	// DeliverOrdered is invoked for each ordered-network message whose
	// target mask includes this node, in global sequence order.
	DeliverOrdered(m *Message)
	// DeliverUnordered is invoked for point-to-point messages.
	DeliverUnordered(m *Message)
}

// Config describes the interconnect.
type Config struct {
	Nodes int
	// BandwidthMBs is the endpoint link bandwidth per channel direction in
	// MB/s ("endpoint bandwidth available" on the paper's x-axes).
	BandwidthMBs float64
	// Traversal is the fixed network crossing latency (default 50 ns).
	Traversal sim.Time
	// BroadcastCost multiplies the link occupancy of broadcast requests
	// (1 for Figures 1–10, 4 for Figures 11–12). Zero means 1.
	BroadcastCost float64
	// JitterNs adds a uniform random 0..JitterNs delay to every message
	// traversal — the "widely variable message latencies" of the paper's
	// random tester (Section 3.4). Ordered messages are jittered before the
	// sequencer stamps them, so the total order is preserved.
	JitterNs int
	// JitterSeed seeds the jitter generator.
	JitterSeed uint64
	// Recycle lets the network reclaim Message records after their last
	// delivery handler returns, eliminating the per-delivery allocation in
	// steady state. Handlers must then not retain a *Message beyond the
	// Deliver* call. Delivery timing and ordering are identical either way.
	Recycle bool
}

func (c Config) withDefaults() Config {
	if c.Traversal == 0 {
		c.Traversal = sim.NetworkTraversal
	}
	if c.BroadcastCost == 0 {
		c.BroadcastCost = 1
	}
	return c
}

// Network is the shared interconnect instance.
type Network struct {
	kernel   *sim.Kernel
	cfg      Config
	handlers []Handler
	out      []*Channel
	in       []*Channel
	seq      uint64
	full     Mask

	// lastSeqDelivered tracks, per node, the last ordered sequence number
	// delivered, to assert the total-order invariant.
	lastSeqDelivered []uint64

	// lastStamp enforces per-sender FIFO into the sequencer: messages leave
	// a node's out-port in order even under jitter. The directory protocol
	// relies on the ordered network preserving its emission order.
	lastStamp []sim.Time

	jitter *sim.RNG

	// msgFree and taskFree recycle Message records and internal scheduling
	// tasks. Tasks are purely network-internal and always recycled; Messages
	// are recycled only under Config.Recycle (handlers might retain them
	// otherwise). Reset drains nothing: the warmed free lists are the point.
	msgFree  []*Message
	taskFree []*netTask

	// OrderedSent counts ordered-network messages by broadcast/multicast.
	OrderedSent   uint64
	UnorderedSent uint64
}

// netTask is the one free-listed scheduling unit behind every network event:
// sequencer stamping, arrival at the inbound channels, channel-grant
// handoff, and delayed sends. A single struct with a kind tag keeps the free
// list monomorphic. An ordered message costs the kernel one stamp, one
// arrival for the whole message, and one handoff per target; an unordered
// one costs an arrival and a handoff.
type netTask struct {
	n       *Network
	kind    uint8
	from    NodeID
	dst     NodeID
	targets Mask
	size    int
	cost    float64
	delay   sim.Time
	m       *Message
	payload any
}

// netTask kinds.
const (
	taskStamp      uint8 = iota // ordered: assign seq, schedule the arrival
	taskOrdArrive               // ordered: seize every target's inbound channel
	taskOrdHandoff              // ordered: hand the message to one node
	taskUnArrive                // unordered: seize the inbound channel
	taskUnHandoff               // unordered: hand the message to the node
	taskSendOrd                 // delayed SendOrdered
	taskSendUn                  // delayed SendUnordered
)

func (n *Network) getTask() *netTask {
	if len(n.taskFree) == 0 {
		return &netTask{n: n}
	}
	t := n.taskFree[len(n.taskFree)-1]
	n.taskFree = n.taskFree[:len(n.taskFree)-1]
	return t
}

func (n *Network) putTask(t *netTask) {
	net := t.n
	*t = netTask{n: net}
	net.taskFree = append(net.taskFree, t)
}

func (n *Network) getMessage() *Message {
	if len(n.msgFree) == 0 || !n.cfg.Recycle {
		return &Message{}
	}
	m := n.msgFree[len(n.msgFree)-1]
	n.msgFree = n.msgFree[:len(n.msgFree)-1]
	return m
}

// releaseMessage counts down one delivery and reclaims the Message when the
// last handler has returned (Config.Recycle only).
func (n *Network) releaseMessage(m *Message) {
	m.remaining--
	if m.remaining > 0 || !n.cfg.Recycle {
		return
	}
	*m = Message{}
	n.msgFree = append(n.msgFree, m)
}

// Run dispatches one network task. Tasks recycle themselves after copying
// the fields they need, so a task fired from the kernel can immediately be
// reused by whatever it schedules next.
func (t *netTask) Run() {
	n := t.n
	switch t.kind {
	case taskStamp:
		from, targets, size, cost, payload := t.from, t.targets, t.size, t.cost, t.payload
		n.putTask(t)
		n.stampAndFanOut(from, targets, size, cost, payload)
	case taskOrdArrive:
		m, cost := t.m, t.cost
		n.putTask(t)
		n.arriveOrdered(m, cost)
	case taskOrdHandoff:
		dst, m := t.dst, t.m
		n.putTask(t)
		if last := n.lastSeqDelivered[dst]; m.Seq <= last {
			panic(fmt.Sprintf("network: total order violated at node %d: seq %d after %d", dst, m.Seq, last))
		}
		n.lastSeqDelivered[dst] = m.Seq
		n.handlers[dst].DeliverOrdered(m)
		n.releaseMessage(m)
	case taskUnArrive:
		dst, m := t.dst, t.m
		n.putTask(t)
		grant := n.in[dst].Seize(n.kernel.Now(), m.Size, 1)
		h := n.getTask()
		h.kind, h.dst, h.m = taskUnHandoff, dst, m
		n.kernel.AtTask(grant, h)
	case taskUnHandoff:
		dst, m := t.dst, t.m
		n.putTask(t)
		n.handlers[dst].DeliverUnordered(m)
		n.releaseMessage(m)
	case taskSendOrd:
		from, targets, size, payload := t.from, t.targets, t.size, t.payload
		n.putTask(t)
		n.SendOrdered(from, targets, size, payload)
	case taskSendUn:
		from, dst, size, payload := t.from, t.dst, t.size, t.payload
		n.putTask(t)
		n.SendUnordered(from, dst, size, payload)
	default:
		panic(fmt.Sprintf("network: unknown task kind %d", t.kind))
	}
}

// New builds the interconnect. Handlers must be registered with SetHandler
// before any traffic is sent.
func New(k *sim.Kernel, cfg Config) *Network {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 || cfg.Nodes > MaxNodes {
		panic(fmt.Sprintf("network: invalid node count %d", cfg.Nodes))
	}
	n := &Network{
		kernel:           k,
		cfg:              cfg,
		handlers:         make([]Handler, cfg.Nodes),
		out:              make([]*Channel, cfg.Nodes),
		in:               make([]*Channel, cfg.Nodes),
		full:             FullMask(cfg.Nodes),
		lastSeqDelivered: make([]uint64, cfg.Nodes),
		lastStamp:        make([]sim.Time, cfg.Nodes),
	}
	for i := range n.out {
		n.out[i] = NewChannel(cfg.BandwidthMBs)
		n.in[i] = NewChannel(cfg.BandwidthMBs)
	}
	if cfg.JitterNs > 0 {
		n.jitter = sim.NewRNG(cfg.JitterSeed ^ 0x6a09e667f3bcc908)
	}
	return n
}

// Reset returns the interconnect to its freshly constructed state for a new
// run: sequencer at zero, channels idle (with the new bandwidth), per-node
// order/FIFO tracking cleared, counters zeroed, and the jitter generator
// reseeded. The node count is structural and must match; handlers and the
// channel objects themselves are retained, so registered receivers and
// utilization samplers stay wired.
func (n *Network) Reset(cfg Config) {
	cfg = cfg.withDefaults()
	if cfg.Nodes != n.cfg.Nodes {
		panic(fmt.Sprintf("network: reset with %d nodes on a %d-node interconnect", cfg.Nodes, n.cfg.Nodes))
	}
	n.cfg = cfg
	n.seq = 0
	for i := range n.out {
		n.out[i].Reset(cfg.BandwidthMBs)
		n.in[i].Reset(cfg.BandwidthMBs)
		n.lastSeqDelivered[i] = 0
		n.lastStamp[i] = 0
	}
	if cfg.JitterNs > 0 {
		seed := cfg.JitterSeed ^ 0x6a09e667f3bcc908
		if n.jitter == nil {
			n.jitter = sim.NewRNG(seed)
		} else {
			n.jitter.Reseed(seed)
		}
	} else {
		n.jitter = nil
	}
	n.OrderedSent = 0
	n.UnorderedSent = 0
}

// jitterDelay samples one message's extra traversal delay.
func (n *Network) jitterDelay() sim.Time {
	if n.jitter == nil {
		return 0
	}
	return sim.Time(n.jitter.Intn(n.cfg.JitterNs + 1))
}

// SetHandler registers the receiver for a node.
func (n *Network) SetHandler(id NodeID, h Handler) { n.handlers[id] = h }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// FullMask returns the mask of all nodes.
func (n *Network) FullMask() Mask { return n.full }

// InChannel returns the inbound channel of a node (for utilization sampling).
func (n *Network) InChannel(id NodeID) *Channel { return n.in[id] }

// OutChannel returns the outbound channel of a node.
func (n *Network) OutChannel(id NodeID) *Channel { return n.out[id] }

// SendOrdered transmits a message on the totally ordered multicast network.
// The message is delivered to every node in targets (including the sender if
// present — the returning copy is the protocol's ordering marker). The
// sequence number is assigned when the message wins the sender's outbound
// channel and is visible to the payload via the delivered Message.
func (n *Network) SendOrdered(from NodeID, targets Mask, size int, payload any) {
	if targets.IsEmpty() {
		panic("network: ordered send with empty target mask")
	}
	n.OrderedSent++
	cost := 1.0
	if targets.Equal(n.full) {
		cost = n.cfg.BroadcastCost
	}
	start := n.out[from].Seize(n.kernel.Now(), size, cost) + n.jitterDelay()
	if start < n.lastStamp[from] {
		start = n.lastStamp[from]
	}
	n.lastStamp[from] = start
	// The sequencer stamps the message when it passes the root of the
	// ordered interconnect; deliveries fan out from there. Jitter is applied
	// before sequencing (and clamped to per-sender FIFO order) so the total
	// order is never violated and sender emission order is preserved.
	st := n.getTask()
	st.kind, st.from, st.targets, st.size, st.cost, st.payload = taskStamp, from, targets, size, cost, payload
	n.kernel.AtTask(start, st)
}

// stampAndFanOut assigns the global sequence number and schedules the
// message's single arrival, one traversal later, at every target at once.
func (n *Network) stampAndFanOut(from NodeID, targets Mask, size int, cost float64, payload any) {
	n.seq++
	m := n.getMessage()
	m.From = from
	m.Targets = targets
	m.Seq = n.seq
	m.Size = size
	m.Broadcast = targets.Equal(n.full)
	m.Payload = payload
	m.remaining = int32(targets.Count())
	a := n.getTask()
	a.kind, a.m, a.cost = taskOrdArrive, m, cost
	n.kernel.AtTask(n.kernel.Now()+n.cfg.Traversal, a)
}

// arriveOrdered seizes the inbound channel of every target, in ascending
// NodeID order, and schedules each target's handoff at its grant time.
// Handoffs stay one event per target because grant times differ per node.
//
// One arrival per message delivers in exactly the order one arrival per
// target would. Per-target arrivals would share one time and hold
// consecutive schedule sequence numbers, so no other event could fire
// between them; each would only seize its own channel and schedule its own
// handoff, at or after the current time and with a later sequence number.
// The walk below makes the same Seize and AtTask calls in the same order.
// It uses up fewer sequence numbers, but those only break ties between
// events at one time, and every pair of events keeps its relative order.
func (n *Network) arriveOrdered(m *Message, cost float64) {
	now := n.kernel.Now()
	for wi, w := range m.Targets.w {
		for w != 0 {
			dst := NodeID(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			h := n.getTask()
			h.kind, h.dst, h.m = taskOrdHandoff, dst, m
			n.kernel.AtTask(n.in[dst].Seize(now, m.Size, cost), h)
		}
	}
}

// SendOrderedDelayed is SendOrdered after delay simulated nanoseconds: the
// outbound channel is seized (and jitter drawn) when the delay elapses,
// exactly as if the caller had scheduled the send with a closure — minus the
// closure.
func (n *Network) SendOrderedDelayed(delay sim.Time, from NodeID, targets Mask, size int, payload any) {
	t := n.getTask()
	t.kind, t.from, t.targets, t.size, t.payload = taskSendOrd, from, targets, size, payload
	n.kernel.ScheduleTask(delay, t)
}

// SendUnordered transmits a point-to-point message (data, ack, nack, or a
// Directory-protocol request) with no ordering guarantee.
func (n *Network) SendUnordered(from, to NodeID, size int, payload any) {
	n.UnorderedSent++
	start := n.out[from].Seize(n.kernel.Now(), size, 1)
	m := n.getMessage()
	m.From = from
	m.To = to
	m.Size = size
	m.Payload = payload
	m.remaining = 1
	a := n.getTask()
	a.kind, a.dst, a.m = taskUnArrive, to, m
	n.kernel.AtTask(start+n.cfg.Traversal+n.jitterDelay(), a)
}

// SendUnorderedDelayed is SendUnordered after delay simulated nanoseconds.
func (n *Network) SendUnorderedDelayed(delay sim.Time, from, to NodeID, size int, payload any) {
	t := n.getTask()
	t.kind, t.from, t.dst, t.size, t.payload = taskSendUn, from, to, size, payload
	n.kernel.ScheduleTask(delay, t)
}

// AvgUtilization returns the mean inbound-channel utilization across nodes
// over the elapsed time (the quantity plotted in Figure 6).
func (n *Network) AvgUtilization(elapsed sim.Time) float64 {
	var sum float64
	for _, c := range n.in {
		sum += c.Utilization(elapsed)
	}
	return sum / float64(len(n.in))
}

// TotalBytes returns the bytes carried by all endpoint channels.
func (n *Network) TotalBytes() uint64 {
	var total uint64
	for i := range n.in {
		total += n.in[i].Bytes() + n.out[i].Bytes()
	}
	return total
}
