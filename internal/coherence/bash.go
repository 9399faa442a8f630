package coherence

import (
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/sim"
)

// BroadcastEscalationRetry is the retry generation at which the memory
// controller escalates a request to a full broadcast, which is guaranteed to
// succeed (the paper's livelock avoidance: broadcast on the third retry).
const BroadcastEscalationRetry = 3

// DefaultRetryBuffer is the number of concurrently outstanding retried
// transactions a memory controller supports before nacking (the paper's
// deadlock avoidance: when no network buffer can be allocated for a retry,
// the requestor is nacked and reissues its request as a broadcast).
const DefaultRetryBuffer = 16

// BashCache is the cache controller of the Bandwidth Adaptive Snooping
// Hybrid (Section 3.3). It behaves like Snooping from the requestor's point
// of view, except that each request is either broadcast or "unicast" — a
// dualcast to the home node and back to the requestor, whose returning copy
// is the ordering marker. Writebacks are always unicast.
//
// A BASH requestor cannot judge locally whether an instance of its request
// was sufficient (the memory controller may retry it as a multicast), so
// every transaction completes on a tagged Data or Ack, and foreign requests
// that arrive while a non-owner transaction is outstanding are deferred and
// replayed against the effective-instance order.
type BashCache struct {
	ctrlCore
	policy adaptive.Policy
	pred   *OwnerPredictor // nil unless destination-set prediction is on
}

// NewBashCache builds a BASH cache controller with the given broadcast
// policy (the adaptive mechanism, or a static policy for the ablations).
func NewBashCache(env Env, arrayCfg cache.Config, policy adaptive.Policy) *BashCache {
	b := &BashCache{policy: policy}
	b.init(env, b, bashCacheTable(), arrayCfg)
	b.pending = pendingStates{
		fetchLoad:    IS_P,
		fetchStore:   IM_P,
		upgradeFromS: SM_P,
		upgradeFromO: OM_P,
	}
	return b
}

// EnablePredictor attaches a last-owner destination-set predictor
// (Section 7 future work; see OwnerPredictor). size 0 selects the default.
func (b *BashCache) EnablePredictor(size int) *OwnerPredictor {
	b.pred = NewOwnerPredictor(size)
	return b.pred
}

// Predictor returns the attached predictor, nil when prediction is off.
func (b *BashCache) Predictor() *OwnerPredictor { return b.pred }

// Reset returns the controller (and its predictor, if attached) to the
// freshly constructed state. The broadcast policy is shared per-node state
// owned by the system, which resets it separately (see core.System.Reset).
func (b *BashCache) Reset() {
	b.ctrlCore.Reset()
	if b.pred != nil {
		b.pred.Reset()
	}
}

// Rollback is ctrlCore.Rollback, and resets the predictor as Reset does.
func (b *BashCache) Rollback() bool {
	if !b.ctrlCore.Rollback() {
		return false
	}
	if b.pred != nil {
		b.pred.Reset()
	}
	return true
}

func bashCacheTable() *Table {
	t := NewTable("bash-cache")
	type se struct {
		s State
		e Event
	}
	for _, d := range []se{
		// Processor events.
		{Invalid, EvLoad}, {Invalid, EvStore},
		{Shared, EvLoad}, {Shared, EvStore}, {Shared, EvReplace},
		{Owned, EvLoad}, {Owned, EvStore}, {Owned, EvReplace},
		{Modified, EvLoad}, {Modified, EvStore}, {Modified, EvReplace},
		// Own instances (original, retried, or reissued requests).
		{IS_P, EvOwnReq}, {IM_P, EvOwnReq}, {SM_P, EvOwnReq}, {OM_P, EvOwnReq},
		{MI_A, EvOwnPutM}, {OI_A, EvOwnPutM}, {II_A, EvOwnPutM},
		// Foreign instances: stable states.
		{Shared, EvOtherGetS}, {Shared, EvOtherGetM},
		{Owned, EvOtherGetS}, {Owned, EvOtherGetM},
		{Modified, EvOtherGetS}, {Modified, EvOtherGetM},
		// Foreign instances: non-owner pending states defer uniformly.
		{IS_P, EvOtherGetS}, {IS_P, EvOtherGetM},
		{IM_P, EvOtherGetS}, {IM_P, EvOtherGetM},
		{SM_P, EvOtherGetS}, {SM_P, EvOtherGetM},
		// Foreign instances: owner-side transients respond immediately.
		{OM_P, EvOtherGetS}, {OM_P, EvOtherGetM},
		{MI_A, EvOtherGetS}, {MI_A, EvOtherGetM},
		{OI_A, EvOtherGetS}, {OI_A, EvOtherGetM},
		{II_A, EvOtherGetS}, {II_A, EvOtherGetM},
		// Responses.
		{IS_P, EvData}, {IM_P, EvData}, {SM_P, EvData},
		{SM_P, EvAck},
		{IS_P, EvNack}, {IM_P, EvNack}, {SM_P, EvNack}, {OM_P, EvNack},
	} {
		t.Declare(d.s, d.e)
	}
	return t
}

// Access dispatches processor operations.
func (b *BashCache) Access(op Op, done func()) {
	if l := b.lines.get(op.Addr); l == nil || l.txn == nil {
		ev := EvLoad
		if op.Store {
			ev = EvStore
		}
		b.tbl.Fire(b.StateOf(op.Addr), ev)
	}
	b.ctrlCore.Access(op, done)
}

func (b *BashCache) issueDemand(l *line, t *txn) {
	// Hinted requests (e.g. instruction fetches, Section 7) skip the
	// probabilistic decision and always take the unicast path.
	if !t.hinted && b.policy.ShouldBroadcast() {
		t.broadcast = true
		b.stats.BroadcastRequests++
		b.send(l, t, b.env.Net.FullMask())
		return
	}
	b.stats.UnicastRequests++
	mask := network.MaskOf(b.env.HomeOf(l.addr), b.env.Self)
	if b.pred != nil {
		if owner, ok := b.pred.Predict(l.addr); ok && owner != b.env.Self {
			mask.Set(owner)
			t.predicted = true
			b.stats.Predicted++
		}
	}
	b.send(l, t, mask)
}

func (b *BashCache) issueWB(l *line, t *txn) {
	b.tbl.Fire(mustWBOrigin(l.state), EvReplace)
	// Writebacks are always unicast (dualcast home + self; the returning
	// copy is the marker).
	b.send(l, t, network.MaskOf(b.env.HomeOf(l.addr), b.env.Self))
}

func (b *BashCache) send(l *line, t *txn, targets network.Mask) {
	pkt := b.env.newPacket()
	pkt.Kind = t.kind
	pkt.Addr = l.addr
	pkt.Requestor = b.env.Self
	pkt.Sender = b.env.Self
	pkt.TxnID = t.id
	pkt.HasData = t.hasData
	pkt.Targets = targets
	b.env.sendOrdered(targets, t.kind.Size(), pkt)
}

// OnOrdered observes one totally ordered request instance.
func (b *BashCache) OnOrdered(m *network.Message) {
	pkt := m.Payload.(*Packet)
	if pkt.Requestor == b.env.Self {
		b.ownInstance(m.Seq, pkt)
		return
	}
	if pkt.Kind == PutM {
		return // foreign writebacks are invisible to caches
	}
	if b.pred != nil && pkt.Kind == GetM {
		// Observed foreign GetM instances train the owner predictor: the
		// requestor is the owner-to-be if the instance is effective, and a
		// cheap approximation of it otherwise.
		b.pred.Learn(pkt.Addr, pkt.Requestor)
	}
	l := b.lookup(pkt.Addr)
	if l == nil {
		return
	}
	b.foreign(l, m.Seq, pkt)
}

func (b *BashCache) ownInstance(seq uint64, pkt *Packet) {
	l := b.lookup(pkt.Addr)
	if l == nil || l.txn == nil || l.txn.id != pkt.TxnID {
		// An instance of a transaction that already completed: a retry that
		// was raced by the sufficient instance. Ignore it.
		b.stats.StaleDataDropped++
		return
	}
	t := l.txn
	if pkt.Kind == PutM {
		b.tbl.Fire(l.state, EvOwnPutM)
		switch l.state {
		case MI_A, OI_A:
			b.respondWBData(l, seq)
			b.completeWB(l)
		case II_A:
			b.completeWB(l)
		default:
			panic(fmt.Sprintf("bash: own PutM in %s", l.state))
		}
		return
	}
	b.tbl.Fire(l.state, EvOwnReq)
	if t.markerSeq == 0 {
		t.markerSeq = seq
	}
	// An owner upgrade is the one transaction whose requestor can judge
	// sufficiency locally: it is the owner and tracks the sharer set
	// (footnote 2), so it reaches the same verdict as the memory controller
	// at the same point in the total order and commits at its own marker.
	// Every other transaction completes on a tagged Data or Ack.
	if l.state == OM_P && pkt.Kind == GetM && l.sharers.SubsetOf(pkt.Targets) {
		b.stats.Upgrades++
		b.completeDemand(l, Modified, seq, l.value)
	}
}

// foreign applies a foreign instance; also the post-completion replay entry.
func (b *BashCache) foreign(l *line, seq uint64, pkt *Packet) {
	ev := EvOtherGetS
	if pkt.Kind == GetM {
		ev = EvOtherGetM
	}
	if l.state == Invalid {
		return
	}
	b.tbl.Fire(l.state, ev)
	switch l.state {
	case Shared:
		if ev == EvOtherGetM {
			l.state = Invalid
			b.array.Remove(l.addr)
			b.release(l)
		}
	case IS_P, IM_P, SM_P:
		// Non-owner transaction outstanding: defer until we learn our
		// effective instance, then drop-or-apply by sequence.
		b.defer_(l, seq, pkt)
	case Modified, Owned, OM_P, MI_A, OI_A:
		b.ownerForeign(l, seq, pkt, ev)
	case II_A:
		// Ownership already surrendered.
	default:
		panic(fmt.Sprintf("bash: foreign %s in %s", pkt.Kind, l.state))
	}
}

// ownerForeign is the owner's side of the sufficiency protocol: the owner
// tracks the sharer set (footnote 2) and reaches the same verdict as the
// memory controller for every instance it observes.
func (b *BashCache) ownerForeign(l *line, seq uint64, pkt *Packet, ev Event) {
	if ev == EvOtherGetS {
		// A GetS that reaches the owner is sufficient by definition.
		b.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		l.sharers.Set(pkt.Requestor)
		switch l.state {
		case Modified:
			l.state = Owned
		case MI_A:
			l.state = OI_A
		}
		return
	}
	// GetM: sufficient only if every sharer received the instance.
	if !l.sharers.SubsetOf(pkt.Targets) {
		return // the memory controller will retry with a wider mask
	}
	b.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
	switch l.state {
	case Modified, Owned:
		l.state = Invalid
		l.sharers = network.Mask{}
		b.array.Remove(l.addr)
		b.release(l)
	case OM_P:
		// Our owner-upgrade lost the race; it becomes a full miss and we
		// now defer like any non-owner.
		l.state = IM_P
		l.sharers = network.Mask{}
	case MI_A:
		l.state = II_A
	case OI_A:
		l.state = II_A
	}
}

// OnUnordered receives Data, Ack and Nack responses.
func (b *BashCache) OnUnordered(pkt *Packet) {
	l := b.lookup(pkt.Addr)
	if l == nil || l.txn == nil || l.txn.id != pkt.TxnID {
		b.stats.StaleDataDropped++
		return
	}
	t := l.txn
	switch pkt.Kind {
	case Data:
		b.tbl.Fire(l.state, EvData)
		t.fromMem = pkt.FromMemory
		if b.pred != nil && !pkt.FromMemory {
			b.pred.Learn(pkt.Addr, pkt.Sender)
		}
		if t.predicted && pkt.EffSeq == t.markerSeq {
			// The predicted mask made the original instance sufficient.
			b.stats.PredictedHits++
		}
		switch l.state {
		case IS_P:
			b.recordMissSource(t)
			b.completeDemand(l, Shared, pkt.EffSeq, pkt.Value)
		case IM_P, SM_P:
			b.recordMissSource(t)
			b.completeDemand(l, Modified, pkt.EffSeq, pkt.Value)
		default:
			panic(fmt.Sprintf("bash: data in %s", l.state))
		}
	case Ack:
		b.tbl.Fire(l.state, EvAck)
		if l.state != SM_P {
			panic(fmt.Sprintf("bash: ack in %s", l.state))
		}
		if t.predicted && pkt.EffSeq == t.markerSeq {
			b.stats.PredictedHits++
		}
		// Upgrade granted with our copy intact.
		b.stats.Upgrades++
		b.completeDemand(l, Modified, pkt.EffSeq, l.value)
	case Nack:
		b.tbl.Fire(l.state, EvNack)
		// Retry buffer exhausted at the home: reissue as a broadcast, which
		// is guaranteed to succeed (deadlock avoidance, Section 3.4).
		b.stats.Reissues++
		t.broadcast = true
		b.send(l, t, b.env.Net.FullMask())
	default:
		panic(fmt.Sprintf("bash cache: unexpected %s", pkt.Kind))
	}
}

func (b *BashCache) recordMissSource(t *txn) {
	if t.fromMem {
		b.stats.MemoryMisses++
	} else {
		b.stats.SharingMisses++
	}
}

// BashMemStats counts memory-side BASH activity.
type BashMemStats struct {
	Sufficient   uint64
	Insufficient uint64
	Retries      uint64
	Escalations  uint64 // third-retry broadcasts
	Nacks        uint64
}

// BashMem is the BASH memory controller: it snoops every instance that
// includes the home node, compares the owner/sharer directory state against
// the instance's multicast mask, satisfies sufficient instances (data or ack
// when memory has the permissions), and retries insufficient instances as
// multicasts on the same totally ordered request network.
type BashMem struct {
	env      Env
	tbl      *Table
	dir      *dirState
	retryCap int
	retries  map[retryKey]bool // outstanding retried transactions
	stats    BashMemStats
}

// retryKey identifies an outstanding retried transaction. TxnIDs are
// requestor-scoped (every cache counts from 1), so the requestor must be
// part of the key — keying by TxnID alone made concurrent transactions from
// different nodes share one retry-buffer slot, undercounting nacks.
type retryKey struct {
	req network.NodeID
	txn uint64
}

// NewBashMem builds a BASH memory controller. retryBuffer <= 0 selects
// DefaultRetryBuffer.
func NewBashMem(env Env, retryBuffer int) *BashMem {
	if retryBuffer <= 0 {
		retryBuffer = DefaultRetryBuffer
	}
	t := NewTable("bash-memory")
	type se struct {
		s MemState
		e Event
	}
	for _, d := range []se{
		{MemOwner, EvMemGetS}, {CacheOwner, EvMemGetS},
		{MemOwner, EvMemGetM}, {CacheOwner, EvMemGetM},
		{MemOwner, EvMemInsufficient}, {CacheOwner, EvMemInsufficient},
		{CacheOwner, EvMemPutMOwner},
		{MemOwner, EvMemPutMStale}, {CacheOwner, EvMemPutMStale},
		{MemWB, EvMemGetS}, {MemWB, EvMemGetM}, {MemWB, EvMemPutMStale},
		{MemWB, EvMemDataWB},
	} {
		t.Declare(d.s, d.e)
	}
	if env.Recycler == nil {
		env.Recycler = NewRecycler()
	}
	return &BashMem{
		env:      env,
		tbl:      t,
		dir:      newDirState(env.Recycler),
		retryCap: retryBuffer,
		retries:  make(map[retryKey]bool),
	}
}

// Table returns the transition table.
func (m *BashMem) Table() *Table { return m.tbl }

// Reset clears the home-side block table, outstanding-retry set, statistics
// and coverage for a new run, draining live directory entries into the free
// list. The retry capacity is structural (systems pool by it) and is
// retained.
func (m *BashMem) Reset() {
	m.dir.reset()
	m.resetRun()
}

// Snapshot renders the home-side block table in address order, for tests
// that compare two controllers' states.
func (m *BashMem) Snapshot() string { return m.dir.snapshot() }

// Checkpoint makes the current home-side block state the state Rollback
// returns to.
func (m *BashMem) Checkpoint() { m.dir.blocks.checkpoint() }

// Rollback is Reset, but returns the block table to its state at the last
// Checkpoint; see dirState.rollback.
func (m *BashMem) Rollback() bool {
	if !m.dir.rollback() {
		return false
	}
	m.resetRun()
	return true
}

func (m *BashMem) resetRun() {
	clear(m.retries)
	m.stats = BashMemStats{}
	m.tbl.ResetCoverage()
}

// Stats returns memory-side counters.
func (m *BashMem) Stats() *BashMemStats { return &m.stats }

// Preheat installs home state for warm-started workloads.
func (m *BashMem) Preheat(addr Addr, owner network.NodeID, value uint64) {
	e := m.dir.entry(addr)
	if owner == MemoryOwner {
		e.state = MemOwner
		e.owner = MemoryOwner
	} else {
		e.setCacheOwner(owner)
	}
	e.value = value
}

// OnOrdered observes one request instance.
func (m *BashMem) OnOrdered(msg *network.Message) {
	pkt := msg.Payload.(*Packet)
	if m.env.HomeOf(pkt.Addr) != m.env.Self {
		return
	}
	m.process(msg.Seq, pkt)
}

func (m *BashMem) process(seq uint64, pkt *Packet) {
	e := m.dir.entry(pkt.Addr)
	if e.state == MemWB {
		ev := EvMemGetS
		switch pkt.Kind {
		case GetM:
			ev = EvMemGetM
		case PutM:
			ev = EvMemPutMStale
		}
		m.tbl.Fire(e.state, ev)
		m.env.Recycler.Retain(pkt)
		e.waiting = append(e.waiting, memWait{seq: seq, pkt: pkt})
		return
	}
	if pkt.Kind == PutM {
		if e.state == CacheOwner && e.owner == pkt.Requestor {
			m.tbl.Fire(e.state, EvMemPutMOwner)
			e.acceptWB(pkt.Requestor)
		} else {
			m.tbl.Fire(e.state, EvMemPutMStale)
		}
		return
	}
	// Sufficiency: the instance must have reached the owner and, for GetM,
	// every (superset) sharer.
	ownerOK := e.state == MemOwner || pkt.Targets.Has(e.owner)
	sharersOK := pkt.Kind == GetS || e.sharers.SubsetOf(pkt.Targets)
	if !ownerOK || !sharersOK {
		m.tbl.Fire(e.state, EvMemInsufficient)
		m.stats.Insufficient++
		m.retry(e, pkt)
		return
	}
	m.stats.Sufficient++
	delete(m.retries, retryKey{pkt.Requestor, pkt.TxnID})
	req := pkt.Requestor
	switch pkt.Kind {
	case GetS:
		m.tbl.Fire(e.state, EvMemGetS)
		if e.state == MemOwner {
			m.sendData(req, pkt, seq, e.value)
		}
		e.addSharer(req)
	case GetM:
		m.tbl.Fire(e.state, EvMemGetM)
		switch {
		case e.state == MemOwner:
			if pkt.HasData && e.sharers.Has(req) {
				m.sendAck(req, pkt, seq)
			} else {
				m.sendData(req, pkt, seq, e.value)
			}
			e.setCacheOwner(req)
		case e.owner == req:
			// Owner upgrade: the requestor tracks the sharer set and
			// reaches the same sufficiency verdict at its own marker; no
			// ack is needed (and an ack could arrive after the requestor
			// has already lost ownership to a later request).
			e.setCacheOwner(req)
		default:
			// The owning cache saw the same instance, reached the same
			// verdict, and responds with data.
			e.setCacheOwner(req)
		}
	}
}

// retry re-multicasts an insufficient instance to the owner, sharers,
// requestor and home; the third retry escalates to a broadcast.
func (m *BashMem) retry(e *dirEntry, pkt *Packet) {
	gen := pkt.Retry + 1
	var targets network.Mask
	if int(gen) >= BroadcastEscalationRetry {
		targets = m.env.Net.FullMask()
		m.stats.Escalations++
	} else {
		targets = e.sharers
		targets.Set(pkt.Requestor)
		targets.Set(m.env.Self)
		if e.state == CacheOwner {
			targets.Set(e.owner)
		}
	}
	if rk := (retryKey{pkt.Requestor, pkt.TxnID}); !m.retries[rk] && len(m.retries) >= m.retryCap {
		// No buffer for the retry: nack; the requestor reissues as a
		// broadcast (deadlock avoidance).
		m.stats.Nacks++
		nack := m.env.newPacket()
		nack.Kind = Nack
		nack.Addr = pkt.Addr
		nack.Requestor = pkt.Requestor
		nack.Sender = m.env.Self
		nack.TxnID = pkt.TxnID
		m.env.sendUnordered(pkt.Requestor, Nack.Size(), nack)
		return
	}
	m.retries[retryKey{pkt.Requestor, pkt.TxnID}] = true
	m.stats.Retries++
	rp := m.env.newPacket()
	*rp = *pkt // wire fields; the refcount is overwritten at send below
	rp.Retry = gen
	rp.Sender = m.env.Self
	rp.Targets = targets
	// Directory access before the retry leaves the controller, giving the
	// paper's property that an insufficient unicast costs the same as a
	// directory-forwarded request (255 ns uncontended).
	m.env.sendOrderedAfter(sim.DRAMAccess, targets, rp.Kind.Size(), rp)
}

func (m *BashMem) sendData(to network.NodeID, req *Packet, seq uint64, value uint64) {
	resp := m.env.newPacket()
	resp.Kind = Data
	resp.Addr = req.Addr
	resp.Requestor = to
	resp.Sender = m.env.Self
	resp.TxnID = req.TxnID
	resp.EffSeq = seq
	resp.Value = value
	resp.FromMemory = true
	m.env.sendUnorderedAfter(sim.DRAMAccess, to, Data.Size(), resp)
}

func (m *BashMem) sendAck(to network.NodeID, req *Packet, seq uint64) {
	resp := m.env.newPacket()
	resp.Kind = Ack
	resp.Addr = req.Addr
	resp.Requestor = to
	resp.Sender = m.env.Self
	resp.TxnID = req.TxnID
	resp.EffSeq = seq
	resp.FromMemory = true
	m.env.sendUnorderedAfter(sim.DRAMAccess, to, Ack.Size(), resp)
}

// OnUnordered receives writeback data.
func (m *BashMem) OnUnordered(pkt *Packet) {
	if pkt.Kind != DataWB {
		panic(fmt.Sprintf("bash memory: unexpected %s", pkt.Kind))
	}
	e := m.dir.entry(pkt.Addr)
	if e.state != MemWB || e.wbFrom != pkt.Sender {
		panic("bash memory: unexpected writeback data")
	}
	m.tbl.Fire(e.state, EvMemDataWB)
	if m.env.Checker != nil {
		m.env.Checker.WBCommit(m.env.Self, pkt.Addr, pkt.EffSeq, pkt.Value)
	}
	e.completeWB(pkt.Value)
	m.env.progress()
	// Replay deferred same-block instances in arrival order (see the
	// snooping controller for the in-place truncation argument).
	waiting := e.waiting
	e.waiting = e.waiting[:0]
	for i := range waiting {
		w := waiting[i]
		waiting[i] = memWait{}
		m.process(w.seq, w.pkt)
		m.env.Recycler.Release(w.pkt)
	}
}

// HomeValue reports memory's copy and ownership for a block.
func (m *BashMem) HomeValue(addr Addr) (uint64, bool) { return m.dir.homeValue(addr) }
