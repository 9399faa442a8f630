package coherence

// Lifecycle tests for the hot-path free lists: line records recycled on
// eviction/invalidation, transactions recycled at completion (including the
// BASH retry and nack paths), directory entries recycled on reset, and —
// the part that catches real bugs — poisoned-reuse checks proving a record
// that comes back from a free list carries no state from its previous life.

import (
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/sim"
)

// clusterNode mirrors core.Node's delivery plumbing: both controllers see
// ordered deliveries, unordered messages route by kind, and the node
// releases the per-delivery packet reference afterwards.
type clusterNode struct {
	cache CacheController
	mem   MemController
	rec   *Recycler
}

func (n *clusterNode) DeliverOrdered(m *network.Message) {
	pkt := m.Payload.(*Packet)
	n.cache.OnOrdered(m)
	n.mem.OnOrdered(m)
	n.rec.Release(pkt)
}

func (n *clusterNode) DeliverUnordered(m *network.Message) {
	pkt := m.Payload.(*Packet)
	switch pkt.Kind {
	case Data, Ack, Nack:
		n.cache.OnUnordered(pkt)
	default:
		n.mem.OnUnordered(pkt)
	}
	n.rec.Release(pkt)
}

// cluster is a minimal multi-node machine built directly on the coherence
// controllers (no core dependency), enough to drive real protocol traffic.
type cluster struct {
	kernel *sim.Kernel
	net    *network.Network
	rec    *Recycler
	nodes  []*clusterNode
}

func newCluster(t *testing.T, protocol string, nodes int, arrayCfg cache.Config, retryBuffer int) *cluster {
	t.Helper()
	k := sim.NewKernel()
	net := network.New(k, network.Config{Nodes: nodes, BandwidthMBs: 100000, Recycle: true})
	rec := NewRecycler()
	c := &cluster{kernel: k, net: net, rec: rec}
	homeOf := func(a Addr) network.NodeID { return network.NodeID(a % Addr(nodes)) }
	for i := 0; i < nodes; i++ {
		env := Env{Kernel: k, Net: net, Self: network.NodeID(i), HomeOf: homeOf, Recycler: rec}
		n := &clusterNode{rec: rec}
		switch protocol {
		case "snooping":
			n.cache = NewSnoopCache(env, arrayCfg)
			n.mem = NewSnoopMem(env)
		case "bash-unicast":
			n.cache = NewBashCache(env, arrayCfg, adaptive.AlwaysUnicast{})
			n.mem = NewBashMem(env, retryBuffer)
		default:
			t.Fatalf("unknown cluster protocol %q", protocol)
		}
		net.SetHandler(network.NodeID(i), n)
		c.nodes = append(c.nodes, n)
	}
	return c
}

// store issues a blocking store and returns a *bool set on completion.
func (c *cluster) store(node int, addr Addr) *bool {
	done := new(bool)
	c.nodes[node].cache.Access(Op{Store: true, Addr: addr}, func() { *done = true })
	return done
}

// TestLifecycleRecycling drives each recycle seam end to end and then
// poisons the recycled records to prove reuse re-initializes them fully.
func TestLifecycleRecycling(t *testing.T) {
	tiny := cache.Config{Sets: 1, Ways: 1}

	t.Run("line-recycled-on-eviction", func(t *testing.T) {
		c := newCluster(t, "snooping", 2, tiny, 0)
		// Store to A fills the single way; store to B evicts A (Modified ->
		// writeback). When the writeback retires, A's line record must be
		// back on the free list with nothing left in it.
		a, b := Addr(2), Addr(4) // same (only) set, homes 0 and 0
		doneA := c.store(0, a)
		c.kernel.Drain()
		if !*doneA {
			t.Fatal("store to A did not complete")
		}
		if got := len(c.rec.lines); got != 0 {
			t.Fatalf("unexpected free lines before eviction: %d", got)
		}
		doneB := c.store(0, b)
		c.kernel.Drain()
		if !*doneB {
			t.Fatal("store to B did not complete")
		}
		if c.nodes[0].cache.StateOf(a) != Invalid {
			t.Fatalf("A not evicted: %s", c.nodes[0].cache.StateOf(a))
		}
		if len(c.rec.lines) == 0 {
			t.Fatal("evicted line record was not recycled")
		}
		for _, l := range c.rec.lines {
			if l.state != Invalid || l.txn != nil || l.value != 0 || !l.sharers.IsEmpty() || len(l.deferred) != 0 {
				t.Fatalf("recycled line leaks state: %+v", l)
			}
		}
		if c.rec.Live() != 0 {
			t.Fatalf("drained cluster leaks %d packets", c.rec.Live())
		}
	})

	t.Run("txn-recycled-on-completion", func(t *testing.T) {
		c := newCluster(t, "snooping", 2, cache.DefaultConfig(), 0)
		done := c.store(0, 7)
		c.kernel.Drain()
		if !*done {
			t.Fatal("store did not complete")
		}
		if len(c.rec.txns) == 0 {
			t.Fatal("completed transaction was not recycled")
		}
		for _, tx := range c.rec.txns {
			if !isZeroTxn(tx) {
				t.Fatalf("recycled txn leaks state: %+v", tx)
			}
		}
	})

	t.Run("txn-and-packets-across-bash-retry-and-nack", func(t *testing.T) {
		// Unicast-only BASH with a single-entry retry buffer at the shared
		// home node 0: node 1's GetM to A (owned by cache 2, not in the
		// dualcast mask) is insufficient and allocates the retry slot;
		// node 3's concurrent GetM to B (owned by cache 2) is insufficient
		// with the buffer full and is nacked, forcing a broadcast reissue
		// (BashMem.retry's two recovery paths).
		c := newCluster(t, "bash-unicast", 4, cache.DefaultConfig(), 1)
		a, b := Addr(4), Addr(8) // both homed at node 0
		c.nodes[2].cache.Preheat(a, Modified, 0xA)
		c.nodes[0].mem.Preheat(a, 2, 0)
		c.nodes[2].cache.Preheat(b, Modified, 0xB)
		c.nodes[0].mem.Preheat(b, 2, 0)
		doneA := c.store(1, a)
		doneB := c.store(3, b)
		c.kernel.Drain()
		if !*doneA || !*doneB {
			t.Fatalf("stores did not complete: A=%v B=%v", *doneA, *doneB)
		}
		bm := c.nodes[0].mem.(*BashMem)
		if st := bm.Stats(); st.Insufficient < 2 || st.Retries != 1 || st.Nacks != 1 {
			t.Fatalf("expected 2+ insufficient, 1 retry, 1 nack; got %+v", st)
		}
		if st := c.nodes[3].cache.Stats(); st.Reissues != 1 {
			t.Fatalf("nacked requestor reissued %d times, want 1", st.Reissues)
		}
		if len(c.rec.txns) < 2 {
			t.Fatalf("retried/nacked transactions not recycled: %d free", len(c.rec.txns))
		}
		for _, tx := range c.rec.txns {
			if !isZeroTxn(tx) {
				t.Fatalf("recycled txn leaks state: %+v", tx)
			}
		}
		// Every packet — original instances, the retried copy, the nack and
		// the broadcast reissue — must have been released exactly once.
		if c.rec.Live() != 0 {
			t.Fatalf("retry/nack flow leaks %d packets", c.rec.Live())
		}
	})

	t.Run("dir-entries-recycled-on-reset", func(t *testing.T) {
		c := newCluster(t, "snooping", 2, cache.DefaultConfig(), 0)
		done := c.store(0, 3) // home 1 materializes an entry
		c.kernel.Drain()
		if !*done {
			t.Fatal("store did not complete")
		}
		before := len(c.rec.entries)
		c.nodes[1].mem.Reset()
		if len(c.rec.entries) <= before {
			t.Fatal("reset did not drain directory entries into the free list")
		}
		for _, e := range c.rec.entries {
			if e.state != MemOwner || e.value != 0 || !e.sharers.IsEmpty() || len(e.waiting) != 0 {
				t.Fatalf("recycled dirEntry leaks state: %+v", e)
			}
		}
	})
}

// isZeroTxn reports whether a txn carries no state (txn contains a func
// field and cannot be compared directly).
func isZeroTxn(tx *txn) bool {
	return tx.id == 0 && tx.kind == 0 && tx.addr == 0 && !tx.hasData &&
		tx.token == 0 && tx.start == 0 && tx.markerSeq == 0 && tx.dataValue == 0 &&
		!tx.dataSeen && !tx.fromMem && !tx.needData && tx.effSeq == 0 && !tx.isWB &&
		!tx.broadcast && !tx.predicted && !tx.hinted && tx.done == nil
}

// TestPoisonedReuse plants garbage in recycled records and asserts a
// subsequent get returns a fully re-initialized record — the direct check
// that no field survives the free list.
func TestPoisonedReuse(t *testing.T) {
	rec := NewRecycler()

	// line
	l := rec.getLine(1)
	l.state = Modified
	l.value = 0xDEAD
	l.sharers.Set(3)
	l.txn = &txn{id: 9}
	l.deferred = rec.getDeferList(4)
	l.deferred = append(l.deferred, deferredMsg{seq: 5, pkt: &Packet{refs: 1}}, deferredMsg{seq: 6, pkt: &Packet{refs: 1}})
	list := l.deferred
	l.txn = nil // caller contract: txn recycled separately before putLine
	rec.putLine(l)
	got := rec.getLine(42)
	if got != l {
		t.Fatal("free list did not return the recycled line")
	}
	if got.addr != 42 || got.state != Invalid || got.value != 0 || !got.sharers.IsEmpty() ||
		got.txn != nil || len(got.deferred) != 0 {
		t.Fatalf("poisoned line not re-initialized: %+v", got)
	}
	// The record's deferral list went back to the pool: it comes back
	// empty, with its capacity, and with no packet left in any slot.
	gl := rec.getDeferList(4)
	if len(gl) != 0 || cap(gl) != cap(list) || &gl[:1][0] != &list[0] {
		t.Fatalf("pool did not return the recycled deferral list empty with its capacity: len %d cap %d", len(gl), cap(gl))
	}
	for i, d := range gl[:cap(gl)] {
		if d != (deferredMsg{}) {
			t.Fatalf("pooled deferral list slot %d still holds %+v", i, d)
		}
	}

	// txn
	tx := rec.getTxn()
	tx.id, tx.kind, tx.token, tx.dataSeen, tx.isWB = 7, GetM, 0xBEEF, true, true
	tx.done = func() {}
	rec.putTxn(tx)
	gt := rec.getTxn()
	if gt != tx {
		t.Fatal("free list did not return the recycled txn")
	}
	if !isZeroTxn(gt) {
		t.Fatalf("poisoned txn not zeroed: %+v", gt)
	}

	// dirEntry
	e := rec.getDirEntry()
	e.state = MemWB
	e.owner = 5
	e.sharers.Set(1)
	e.value = 0xF00D
	e.wbFrom = 2
	rec.wait(e, 3, &Packet{})
	waiting := e.waiting
	rec.putDirEntry(e)
	ge := rec.getDirEntry()
	if ge != e {
		t.Fatal("free list did not return the recycled dirEntry")
	}
	if ge.state != MemOwner || ge.owner != MemoryOwner || !ge.sharers.IsEmpty() ||
		ge.value != 0 || ge.wbFrom != 0 || len(ge.waiting) != 0 {
		t.Fatalf("poisoned dirEntry not re-initialized: %+v", ge)
	}
	gw := rec.getWaitList()
	if len(gw) != 0 || cap(gw) != cap(waiting) || &gw[:1][0] != &waiting[0] {
		t.Fatalf("pool did not return the recycled waiting list empty with its capacity: len %d cap %d", len(gw), cap(gw))
	}
	for i, w := range gw[:cap(gw)] {
		if w != (memWait{}) {
			t.Fatalf("pooled waiting list slot %d still holds %+v", i, w)
		}
	}

	// Packet, through the refcount path.
	pkt := rec.Get()
	pkt.Kind = Data
	pkt.Value = 0xAB
	pkt.Targets.Set(2)
	pkt.refs = 1
	rec.Release(pkt)
	gp := rec.Get()
	if gp != pkt {
		t.Fatal("free list did not return the recycled packet")
	}
	if *gp != (Packet{}) {
		t.Fatalf("poisoned packet not zeroed: %+v", gp)
	}
}

// releasingOps is a protoOps whose every foreign instance leaves the block
// Invalid and releases its record, and which fails the test when an
// instance is applied to a record no longer in the line table.
type releasingOps struct {
	t     *testing.T
	c     *ctrlCore
	addr  Addr
	calls int
}

func (o *releasingOps) issueDemand(*line, *txn) {}
func (o *releasingOps) issueWB(*line, *txn)     {}

func (o *releasingOps) foreign(l *line, seq uint64, _ *Packet) {
	o.calls++
	if o.c.lines.get(o.addr) != l {
		o.t.Errorf("instance %d applied to a record no longer in the line table", seq)
	}
	l.state = Invalid
	o.c.release(l)
}

// TestReplayStopsAtReleasedRecord: once a replayed instance releases the
// line record, replayDeferred applies no further instance to it, yet still
// releases every parked packet, pools the list, and recycles the record
// exactly once.
func TestReplayStopsAtReleasedRecord(t *testing.T) {
	rec := NewRecycler()
	var c ctrlCore
	ops := &releasingOps{t: t, c: &c, addr: 5}
	c.init(Env{Kernel: sim.NewKernel(), Recycler: rec}, ops, NewTable("replay"), cache.Config{Sets: 1, Ways: 1})
	l := c.line(ops.addr)
	for seq := uint64(1); seq <= 3; seq++ {
		pkt := rec.Get()
		pkt.refs = 1 // the delivery's reference
		c.defer_(l, seq, pkt)
		rec.Release(pkt) // the delivery ends; the deferral's reference remains
	}
	c.replayDeferred(l, 0)
	if ops.calls != 1 {
		t.Errorf("foreign applied %d times, want 1 (the record is gone after the first)", ops.calls)
	}
	if rec.Live() != 0 {
		t.Errorf("%d parked packets were never released", rec.Live())
	}
	if len(rec.defers) != 1 {
		t.Errorf("%d deferral lists pooled, want 1", len(rec.defers))
	}
	if len(rec.lines) != 1 {
		t.Errorf("%d line records recycled, want 1", len(rec.lines))
	}
}

// TestPacketDoubleReleasePanics: releasing a packet past its last reference
// panics with a descriptive message rather than corrupting the free list.
func TestPacketDoubleReleasePanics(t *testing.T) {
	rec := NewRecycler()
	pkt := rec.Get()
	pkt.Kind = Data
	pkt.refs = 1
	rec.Release(pkt)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double release") {
			t.Fatalf("double-release panic not descriptive: %v", r)
		}
	}()
	rec.Release(pkt)
}

// TestNoRecycleHatch: with recycling off nothing is pooled, but the
// reference counting (and its double-release guard) stays on.
func TestNoRecycleHatch(t *testing.T) {
	rec := NewRecycler()
	rec.SetRecycle(false)
	pkt := rec.Get()
	pkt.refs = 1
	rec.Release(pkt)
	if rec.FreeLen() != 0 || len(rec.lines) != 0 || len(rec.txns) != 0 {
		t.Fatal("NoRecycle recycler pooled a record")
	}
	l := rec.getLine(1)
	rec.putLine(l)
	if got := rec.getLine(1); got == l {
		t.Fatal("NoRecycle recycler reused a line record")
	}
	q := rec.getDeferList(4)
	rec.putDeferList(q)
	if len(rec.defers) != 0 {
		t.Fatal("NoRecycle recycler pooled a deferral list")
	}
}
