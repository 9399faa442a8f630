package coherence

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
)

// txn is an outstanding cache transaction: a demand miss (GetS/GetM) or a
// victim writeback (PutM).
type txn struct {
	id        uint64
	kind      Kind
	addr      Addr
	hasData   bool
	token     uint64 // value this transaction will write (GetM)
	start     sim.Time
	markerSeq uint64 // first own ordered instance observed
	dataValue uint64 // value carried by a Data that arrived before the marker
	dataSeen  bool
	fromMem   bool // data was supplied by memory (miss-source accounting)
	needData  bool // Directory: marker said data is coming
	effSeq    uint64
	isWB      bool
	broadcast bool // issued (or reissued) as a broadcast
	predicted bool // mask extended by the owner predictor
	hinted    bool // carried Op.HintUnicast (bypass the broadcast decision)
	done      func()
}

// deferredMsg is a foreign ordered instance parked while this cache has an
// outstanding transaction on the block.
type deferredMsg struct {
	seq uint64
	pkt *Packet
}

// line is the controller's per-block record. Blocks in state I with no
// transaction and no deferred work are removed from the line table.
type line struct {
	addr  Addr
	state State
	// logged marks a record whose checkpoint value is already in the line
	// table's undo log (or that did not exist at the checkpoint).
	logged   bool
	value    uint64
	sharers  network.Mask // BASH owner-side sharer tracking (footnote 2)
	txn      *txn
	deferred []deferredMsg
}

// pendedOp is a processor operation waiting for a same-block writeback to
// retire.
type pendedOp struct {
	op   Op
	done func()
}

// protoOps is the protocol-specific part of a cache controller.
type protoOps interface {
	// issueDemand transmits the request(s) for a demand transaction.
	issueDemand(l *line, t *txn)
	// issueWB transmits a writeback request.
	issueWB(l *line, t *txn)
	// foreign applies a foreign ordered instance to the line; it is used
	// both for direct delivery and for post-completion replay.
	foreign(l *line, seq uint64, pkt *Packet)
}

// ctrlCore is the machinery shared by the three protocol cache controllers:
// line storage, the cache array, transaction lifecycle, deferral/replay, and
// statistics.
type ctrlCore struct {
	env     Env
	ops     protoOps
	tbl     *Table
	array   *cache.Array
	lines   blockTable[line]
	nextTxn uint64
	stats   CacheStats
	latHist *stats.Histogram
	pended  map[Addr][]pendedOp
	pending pendingStates
	// hitLatency is the L2 hit service time (breaks same-instant recursion).
	hitLatency sim.Time

	// deferCap is the capacity of a new deferral list, which a line record
	// takes from the Recycler's pool on its first deferral (the node
	// count, at least 8: the common-case bound on same-block deferrals).
	deferCap int

	// pinnedFn is the eviction-pinning predicate, bound once so missFetch
	// does not allocate a closure per demand miss.
	pinnedFn func(Addr) bool
}

// pendingStates selects the transient entered for each kind of demand miss:
// Snooping/Directory use the *_A marker-wait states, BASH the uniform *_P
// pending states.
type pendingStates struct {
	fetchLoad, fetchStore      State
	upgradeFromS, upgradeFromO State
}

func (c *ctrlCore) init(env Env, ops protoOps, tbl *Table, arrayCfg cache.Config) {
	if env.Recycler == nil {
		env.Recycler = NewRecycler()
	}
	c.env = env
	c.ops = ops
	c.tbl = tbl
	c.array = cache.New(arrayCfg)
	// Pre-size the line table toward its hard bound (array residency plus
	// in-flight work) so steady-state churn rarely grows it; the hint is
	// capped to keep huge default geometries lazy.
	c.lines.init(min(arrayCfg.Lines(), 1024))
	c.pended = make(map[Addr][]pendedOp)
	c.latHist = stats.NewLatencyHistogram()
	c.hitLatency = 1
	c.deferCap = 8
	if env.Net != nil && env.Net.Nodes() > c.deferCap {
		c.deferCap = env.Net.Nodes()
	}
	c.pinnedFn = c.isPinned
}

// Reset returns the controller to its freshly constructed state for a new
// run, retaining every allocation the previous run grew: the line table
// keeps its slot arrays, the pended map its buckets, the cache array its
// materialized sets and the histogram its buckets, the transition table
// keeps its declarations (coverage is cleared), and live line/txn records
// drain into the free lists rather than being freed, so the warmed
// capacity carries into the next run. Packets still parked on deferred
// lists are only dropped here — the same packet may be parked at several
// nodes — and Recycler.Reclaim takes them back once every controller has
// been reset. The environment — kernel,
// network, identity, checker, progress hook — is structural and survives
// unchanged. Reset walks every live record and ends any checkpoint.
func (c *ctrlCore) Reset() {
	rec := c.env.Recycler
	for _, l := range c.lines.vals {
		if l == nil {
			continue
		}
		c.dropTxn(l)
		rec.putLine(l)
	}
	c.lines.clear()
	c.array.Reset()
	c.resetRun()
}

// Checkpoint makes the current block state — line records and cache
// array — the state Rollback returns to, and starts logging the first
// change of each record and set.
func (c *ctrlCore) Checkpoint() {
	c.lines.checkpoint()
	c.array.Checkpoint()
}

// Rollback returns the controller to its state at the last Checkpoint, as
// Reset followed by re-installing that state would, in time proportional
// to the records and sets the run touched. In-flight transactions recycle
// and parked packets are dropped as in Reset. It reports false, changing
// nothing, when there is no checkpoint to return to (none was taken, Reset
// ended it, or the run outgrew the undo log); the caller must then Reset.
func (c *ctrlCore) Rollback() bool {
	added, saved, ok := c.lines.rewind()
	if !ok {
		return false
	}
	rec := c.env.Recycler
	for _, a := range added {
		if l := c.lines.get(a); l != nil {
			c.dropTxn(l)
			c.lines.del(a)
			rec.putLine(l)
		}
	}
	for i := range saved {
		s := &saved[i]
		l := c.lines.get(s.addr)
		if l == nil {
			l = rec.getLine(s.addr)
			c.lines.put(s.addr, l)
		}
		c.dropTxn(l)
		rec.putDeferList(l.deferred)
		*l = s.val
		l.deferred = nil
	}
	c.lines.checkpoint()
	c.array.Rollback()
	c.resetRun()
	return true
}

// dropTxn recycles l's transaction, if any.
func (c *ctrlCore) dropTxn(l *line) {
	if l.txn != nil {
		c.env.Recycler.putTxn(l.txn)
		l.txn = nil
	}
}

// resetRun clears the per-run state Reset and Rollback share: pended
// queues, the latency histogram, coverage, the transaction counter and
// statistics.
func (c *ctrlCore) resetRun() {
	for _, q := range c.pended {
		c.env.Recycler.putPendQueue(q)
	}
	clear(c.pended)
	c.latHist.Reset()
	c.tbl.ResetCoverage()
	c.nextTxn = 0
	c.stats = CacheStats{}
}

// Snapshot renders the controller's block state — every line record in
// address order, then the cache array — for tests that compare two
// controllers' states.
func (c *ctrlCore) Snapshot() string {
	var b strings.Builder
	for _, a := range sortedKeys(&c.lines) {
		l := c.lines.get(a)
		fmt.Fprintf(&b, "line %d: %s value %d sharers %s txn %t deferred %d\n",
			a, l.state, l.value, l.sharers, l.txn != nil, len(l.deferred))
	}
	b.WriteString(c.array.Snapshot())
	return b.String()
}

// LatencyHistogram exposes the demand-miss latency distribution.
func (c *ctrlCore) LatencyHistogram() *stats.Histogram { return c.latHist }

// Stats returns the controller counters.
func (c *ctrlCore) Stats() *CacheStats { return &c.stats }

// Table returns the transition table.
func (c *ctrlCore) Table() *Table { return c.tbl }

// StateOf reports the state held for a block (Invalid when absent).
func (c *ctrlCore) StateOf(a Addr) State {
	if l := c.lines.get(a); l != nil {
		return l.state
	}
	return Invalid
}

// ValueOf reports the data token held for a block.
func (c *ctrlCore) ValueOf(a Addr) uint64 {
	if l := c.lines.get(a); l != nil {
		return l.value
	}
	return 0
}

// lookup returns the record for addr, or nil, for a caller that may
// change it: while the line table is logging, the record's checkpoint
// value is saved on its first lookup since the checkpoint.
func (c *ctrlCore) lookup(addr Addr) *line {
	l := c.lines.get(addr)
	if l != nil && c.lines.logging && !l.logged {
		c.lines.save(addr, l)
		l.logged = true
	}
	return l
}

// line returns the record for addr, materializing an Invalid one.
func (c *ctrlCore) line(addr Addr) *line {
	l := c.lookup(addr)
	if l == nil {
		l = c.env.Recycler.getLine(addr)
		l.logged = c.lines.logging
		c.lines.put(addr, l)
	}
	return l
}

// release drops a line record if it holds nothing, recycling it. It is
// idempotent: only the call that actually removes the record from the
// table recycles it — a double push onto the free list would hand one
// record to two blocks.
func (c *ctrlCore) release(l *line) {
	if l.state == Invalid && l.txn == nil && len(l.deferred) == 0 {
		if c.lines.get(l.addr) == l {
			c.lines.del(l.addr)
			c.env.Recycler.putLine(l)
		}
	}
}

// isPinned reports whether a resident block cannot be evicted because it
// has in-flight work (the demand-insertion pinning predicate).
func (c *ctrlCore) isPinned(a Addr) bool {
	if vl := c.lines.get(a); vl != nil {
		return vl.txn != nil || len(vl.deferred) > 0
	}
	return false
}

// token mints a unique store value for a transaction.
func (c *ctrlCore) token(txnID uint64) uint64 {
	return (uint64(c.env.Self)+1)<<40 | txnID
}

// Preheat installs a stable state without any protocol traffic (used to
// warm-start workloads; the system keeps directory state consistent).
func (c *ctrlCore) Preheat(addr Addr, st State, value uint64) {
	if !st.IsStable() {
		panic("coherence: preheat requires a stable state")
	}
	l := c.line(addr)
	l.state = st
	l.value = value
	if st != Invalid {
		if _, _, ok := c.array.Insert(addr, nil); !ok {
			panic("coherence: preheat insert failed")
		}
	}
}

// Access implements the blocking processor interface.
func (c *ctrlCore) Access(op Op, done func()) {
	l := c.line(op.Addr)
	if op.Store {
		c.stats.Stores++
	} else {
		c.stats.Loads++
	}
	if l.txn != nil {
		// A writeback for this very block is still in flight; the demand
		// must wait for it to retire (the demand itself is never
		// concurrent: the processor is blocking).
		q, ok := c.pended[op.Addr]
		if !ok {
			q = c.env.Recycler.getPendQueue()
		}
		c.pended[op.Addr] = append(q, pendedOp{op: op, done: done})
		return
	}
	switch l.state {
	case Modified:
		c.hit(l, op, done)
	case Owned, Shared:
		if !op.Store {
			c.hit(l, op, done)
			return
		}
		c.missUpgrade(l, op, done)
	case Invalid:
		c.missFetch(l, op, done)
	default:
		panic(fmt.Sprintf("coherence: access in transient state %s without txn", l.state))
	}
}

func (c *ctrlCore) hit(l *line, op Op, done func()) {
	c.stats.Hits++
	c.array.Touch(l.addr)
	c.env.Kernel.Schedule(c.hitLatency, done)
}

func (c *ctrlCore) newTxn(kind Kind, addr Addr, hasData bool, done func()) *txn {
	c.nextTxn++
	t := c.env.Recycler.getTxn()
	t.id = c.nextTxn
	t.kind = kind
	t.addr = addr
	t.hasData = hasData
	t.start = c.env.Kernel.Now()
	t.done = done
	t.token = c.token(t.id)
	return t
}

// missFetch handles a demand miss from Invalid: reserve an array slot
// (possibly starting a victim writeback) and issue GetS/GetM.
func (c *ctrlCore) missFetch(l *line, op Op, done func()) {
	c.stats.Misses++
	victim, evicted, ok := c.array.Insert(l.addr, c.pinnedFn)
	if !ok {
		// Every way is pinned by in-flight work; wait for this block's set
		// to free up by pending on our own (rare) condition: retry after
		// the next writeback completes. Simplest correct policy: pend on
		// the victim that will complete soonest is overkill — retry after
		// a short delay.
		c.env.Kernel.Schedule(sim.NetworkTraversal, func() { c.Access(op, done) })
		return
	}
	if evicted {
		c.evict(victim)
	}
	kind := GetS
	st := c.fetchPendingState(false)
	if op.Store {
		kind = GetM
		st = c.fetchPendingState(true)
	}
	t := c.newTxn(kind, l.addr, false, done)
	t.hinted = op.HintUnicast
	l.txn = t
	l.state = st
	c.ops.issueDemand(l, t)
}

// missUpgrade handles a store to an S or O copy.
func (c *ctrlCore) missUpgrade(l *line, op Op, done func()) {
	c.stats.Misses++
	c.array.Touch(l.addr)
	t := c.newTxn(GetM, l.addr, true, done)
	t.hinted = op.HintUnicast
	l.txn = t
	l.state = c.upgradePendingState(l.state)
	c.ops.issueDemand(l, t)
}

// evict removes a victim from the array and, for dirty states, starts a
// writeback transaction. The array slot is freed immediately; the line table
// keeps the transient writeback state.
func (c *ctrlCore) evict(victim Addr) {
	vl := c.line(victim)
	c.array.Remove(victim)
	switch vl.state {
	case Shared:
		// Silent S -> I downgrade (paper Section 3).
		c.tbl.Fire(Shared, EvReplace)
		vl.state = Invalid
		c.release(vl)
	case Modified, Owned:
		c.stats.Writebacks++
		t := c.newTxn(PutM, victim, true, nil)
		t.isWB = true
		if vl.state == Modified {
			vl.state = MI_A
		} else {
			vl.state = OI_A
		}
		vl.txn = t
		c.ops.issueWB(vl, t)
	case Invalid:
		// Preheat bookkeeping mismatch would land here; treat as a bug.
		panic("coherence: evicting an invalid block")
	default:
		panic(fmt.Sprintf("coherence: evicting block in transient state %s", vl.state))
	}
}

func (c *ctrlCore) fetchPendingState(store bool) State {
	if store {
		return c.pending.fetchStore
	}
	return c.pending.fetchLoad
}

func (c *ctrlCore) upgradePendingState(from State) State {
	if from == Owned {
		return c.pending.upgradeFromO
	}
	return c.pending.upgradeFromS
}

// completeDemand retires a demand transaction: installs the final state,
// records latency, notifies the processor, and replays deferred foreign
// instances (dropping those ordered before the effective instance).
func (c *ctrlCore) completeDemand(l *line, final State, effSeq uint64, observedOld uint64) {
	t := l.txn
	if t == nil || t.isWB {
		panic("coherence: completeDemand without demand txn")
	}
	lat := c.env.Kernel.Now() - t.start
	c.stats.MissLatencySum += lat
	c.stats.MissLatencyCount++
	c.latHist.Add(float64(lat))
	l.state = final
	if t.kind == GetM {
		if c.env.Checker != nil {
			c.env.Checker.WriteCommit(c.env.Self, l.addr, effSeq, t.token, observedOld)
		}
		l.value = t.token
		l.sharers = network.Mask{}
	} else {
		l.value = observedOld
		if c.env.Checker != nil {
			c.env.Checker.ReadCommit(c.env.Self, l.addr, effSeq, observedOld)
		}
	}
	done := t.done
	l.txn = nil
	c.env.Recycler.putTxn(t)
	c.env.progress()
	c.replayDeferred(l, effSeq)
	if done != nil {
		done()
	}
}

// completeWB retires a writeback transaction and re-dispatches any pended
// processor operation for the block.
func (c *ctrlCore) completeWB(l *line) {
	if l.txn == nil || !l.txn.isWB {
		panic("coherence: completeWB without WB txn")
	}
	t := l.txn
	l.txn = nil
	c.env.Recycler.putTxn(t)
	l.state = Invalid
	c.env.progress()
	pend, had := c.pended[l.addr]
	delete(c.pended, l.addr)
	c.release(l)
	for _, p := range pend {
		c.Access(p.op, p.done)
	}
	if had {
		c.env.Recycler.putPendQueue(pend)
	}
}

// defer_ parks a foreign instance until the outstanding transaction
// resolves, retaining the packet past its delivery. The record's first
// deferral takes a list from the Recycler's pool.
func (c *ctrlCore) defer_(l *line, seq uint64, pkt *Packet) {
	c.env.Recycler.Retain(pkt)
	if l.deferred == nil {
		l.deferred = c.env.Recycler.getDeferList(c.deferCap)
	}
	l.deferred = append(l.deferred, deferredMsg{seq: seq, pkt: pkt})
}

// replayDeferred applies parked instances: those ordered before the
// effective instance are subsumed by it and dropped; later ones apply to the
// post-transaction state in order. Every parked packet's retained reference
// is released here (a replayed instance that re-defers retains again).
//
// The list is detached from the record before the replay and pooled after
// it: a replayed instance may release the record, which recycles it (and
// would pool an attached list mid-replay), and one that re-defers takes a
// fresh list. Once a replayed instance has released the record, the block
// has no record left and the later instances have nothing to apply to (as
// on direct delivery to a block without one): they are only released, and
// the recycled record is not released again.
func (c *ctrlCore) replayDeferred(l *line, effSeq uint64) {
	defs := l.deferred
	if len(defs) == 0 {
		return
	}
	l.deferred = nil
	addr, live := l.addr, true
	for i := range defs {
		d := defs[i]
		defs[i] = deferredMsg{}
		if live && d.seq > effSeq {
			c.ops.foreign(l, d.seq, d.pkt)
			live = c.lines.get(addr) == l
		}
		c.env.Recycler.Release(d.pkt)
	}
	c.env.Recycler.putDeferList(defs)
	if live {
		c.release(l)
	}
}

// respondData supplies the block to a requestor: the cache takes CacheAccess
// (25 ns) to read the array, then sends a 72-byte Data on the response
// network.
func (c *ctrlCore) respondData(to network.NodeID, addr Addr, value uint64, effSeq, txnID uint64) {
	pkt := c.env.newPacket()
	pkt.Kind = Data
	pkt.Addr = addr
	pkt.Requestor = to
	pkt.Sender = c.env.Self
	pkt.TxnID = txnID
	pkt.EffSeq = effSeq
	pkt.Value = value
	c.env.sendUnorderedAfter(sim.CacheAccess, to, Data.Size(), pkt)
}

// respondWBData sends writeback data to the home memory controller, tagged
// with the writeback's position in the total order (its marker sequence).
func (c *ctrlCore) respondWBData(l *line, seq uint64) {
	pkt := c.env.newPacket()
	pkt.Kind = DataWB
	pkt.Addr = l.addr
	pkt.Sender = c.env.Self
	pkt.Value = l.value
	pkt.EffSeq = seq
	c.env.sendUnorderedAfter(sim.CacheAccess, c.env.HomeOf(l.addr), DataWB.Size(), pkt)
}
