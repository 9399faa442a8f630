package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/sim"
)

// SnoopCache is the cache controller of the aggressive MOSI broadcast
// snooping protocol of Section 3.1 (loosely modeled on the Sun UE10000).
// Every request is broadcast on the totally ordered request network; the
// requestor snoops its own request as the ordering marker; the owner
// (possibly memory) supplies data on the unordered response network.
type SnoopCache struct {
	ctrlCore
}

// NewSnoopCache builds a snooping cache controller.
func NewSnoopCache(env Env, arrayCfg cache.Config) *SnoopCache {
	s := &SnoopCache{}
	s.init(env, s, snoopCacheTable(), arrayCfg)
	s.pending = pendingStates{
		fetchLoad:    IS_A,
		fetchStore:   IM_A,
		upgradeFromS: SM_A,
		upgradeFromO: OM_A,
	}
	return s
}

// snoopCacheTable declares the legal transitions (Table 1 accounting).
func snoopCacheTable() *Table {
	t := NewTable("snooping-cache")
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
		// Own requests on the ordered network (markers).
		{IS_A, EvOwnReq}, {IM_A, EvOwnReq}, {SM_A, EvOwnReq}, {OM_A, EvOwnReq},
		{MI_A, EvOwnPutM}, {OI_A, EvOwnPutM}, {II_A, EvOwnPutM},
		// Foreign requests.
		{Shared, EvOtherGetS}, {Shared, EvOtherGetM},
		{Owned, EvOtherGetS}, {Owned, EvOtherGetM},
		{Modified, EvOtherGetS}, {Modified, EvOtherGetM},
		{IS_A, EvOtherGetS}, {IS_A, EvOtherGetM},
		{IM_A, EvOtherGetS}, {IM_A, EvOtherGetM},
		{SM_A, EvOtherGetS}, {SM_A, EvOtherGetM},
		{OM_A, EvOtherGetS}, {OM_A, EvOtherGetM},
		{MI_A, EvOtherGetS}, {MI_A, EvOtherGetM},
		{OI_A, EvOtherGetS}, {OI_A, EvOtherGetM},
		{II_A, EvOtherGetS}, {II_A, EvOtherGetM},
		{IS_D, EvOtherGetS}, {IS_D, EvOtherGetM}, // deferred
		{IM_D, EvOtherGetS}, {IM_D, EvOtherGetM}, // deferred
		// Data responses. Data cannot overtake the requestor's own marker in
		// snooping: both cross the requestor's FIFO inbound link, and the
		// responder sees the request no earlier than the marker's delivery —
		// so there are no *_A data rows.
		{IS_D, EvData}, {IM_D, EvData},
	} {
		t.Declare(d.s, d.e)
	}
	return t
}

// Access dispatches processor operations and fires the processor-event rows
// of the transition table.
func (s *SnoopCache) Access(op Op, done func()) {
	st := s.StateOf(op.Addr)
	if l := s.lines.get(op.Addr); l == nil || l.txn == nil {
		ev := EvLoad
		if op.Store {
			ev = EvStore
		}
		s.tbl.Fire(st, ev)
	}
	s.ctrlCore.Access(op, done)
}

func (s *SnoopCache) issueDemand(l *line, t *txn) {
	t.broadcast = true
	s.stats.BroadcastRequests++
	s.broadcastReq(l, t)
}

func (s *SnoopCache) issueWB(l *line, t *txn) {
	s.tbl.Fire(mustWBOrigin(l.state), EvReplace)
	t.broadcast = true
	s.broadcastReq(l, t)
}

func mustWBOrigin(st State) State {
	switch st {
	case MI_A:
		return Modified
	case OI_A:
		return Owned
	}
	panic(fmt.Sprintf("coherence: writeback from %s", st))
}

func (s *SnoopCache) broadcastReq(l *line, t *txn) {
	pkt := s.env.newPacket()
	pkt.Kind = t.kind
	pkt.Addr = l.addr
	pkt.Requestor = s.env.Self
	pkt.Sender = s.env.Self
	pkt.TxnID = t.id
	pkt.HasData = t.hasData
	s.env.sendOrdered(s.env.Net.FullMask(), t.kind.Size(), pkt)
}

// OnOrdered snoops one totally ordered request.
func (s *SnoopCache) OnOrdered(m *network.Message) {
	pkt := m.Payload.(*Packet)
	if pkt.Requestor == s.env.Self {
		s.ownReq(m.Seq, pkt)
		return
	}
	l := s.lookup(pkt.Addr)
	if l == nil {
		return // no copy, no transaction: nothing to snoop
	}
	s.foreign(l, m.Seq, pkt)
}

func (s *SnoopCache) ownReq(seq uint64, pkt *Packet) {
	l := s.lookup(pkt.Addr)
	if l == nil || l.txn == nil || l.txn.id != pkt.TxnID {
		panic("snooping: own request without matching transaction")
	}
	t := l.txn
	t.markerSeq = seq
	if pkt.Kind == PutM {
		s.tbl.Fire(l.state, EvOwnPutM)
		switch l.state {
		case MI_A, OI_A:
			s.respondWBData(l, seq)
			s.completeWB(l)
		case II_A:
			s.completeWB(l)
		default:
			panic(fmt.Sprintf("snooping: own PutM in %s", l.state))
		}
		return
	}
	s.tbl.Fire(l.state, EvOwnReq)
	switch l.state {
	case IS_A:
		l.state = IS_D
	case IM_A:
		l.state = IM_D
	case SM_A, OM_A:
		// The upgrade takes effect at the marker: the broadcast reached
		// every sharer, and the local copy is current (any earlier
		// conflicting write would have demoted this state).
		s.stats.Upgrades++
		s.completeDemand(l, Modified, seq, l.value)
	default:
		panic(fmt.Sprintf("snooping: own %s in %s", pkt.Kind, l.state))
	}
}

// foreign applies a foreign request instance to a line; it is also the
// replay entry point after completion.
func (s *SnoopCache) foreign(l *line, seq uint64, pkt *Packet) {
	if pkt.Kind == PutM {
		return // foreign writebacks are invisible to other caches
	}
	ev := EvOtherGetS
	if pkt.Kind == GetM {
		ev = EvOtherGetM
	}
	if l.state == Invalid {
		return
	}
	s.tbl.Fire(l.state, ev)
	switch l.state {
	case IS_A, IM_A, II_A:
		// No valid copy and no ownership: nothing to do.
	case Shared:
		if ev == EvOtherGetM {
			l.state = Invalid
			s.array.Remove(l.addr)
			s.release(l)
		}
	case SM_A:
		if ev == EvOtherGetM {
			// Lost the S copy before our own marker: the upgrade becomes a
			// full miss; data will come from the new owner chain. The array
			// slot stays reserved for the fill.
			l.state = IM_A
		}
	case OM_A:
		s.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvOtherGetM {
			l.state = IM_A
		}
	case Owned:
		s.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvOtherGetM {
			l.state = Invalid
			s.array.Remove(l.addr)
			s.release(l)
		}
	case Modified:
		s.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvOtherGetM {
			l.state = Invalid
			s.array.Remove(l.addr)
			s.release(l)
		} else {
			l.state = Owned
		}
	case MI_A:
		s.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvOtherGetM {
			l.state = II_A
		} else {
			l.state = OI_A
		}
	case OI_A:
		s.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvOtherGetM {
			l.state = II_A
		}
	case IS_D, IM_D:
		// Marker already observed: the foreign request is ordered after our
		// transaction; park it until data arrives.
		s.defer_(l, seq, pkt)
	default:
		panic(fmt.Sprintf("snooping: foreign %s in %s", pkt.Kind, l.state))
	}
}

// OnUnordered receives data responses.
func (s *SnoopCache) OnUnordered(pkt *Packet) {
	if pkt.Kind != Data {
		panic(fmt.Sprintf("snooping cache: unexpected %s", pkt.Kind))
	}
	l := s.lookup(pkt.Addr)
	if l == nil || l.txn == nil || l.txn.id != pkt.TxnID {
		// Redundant data for an upgrade that completed at its marker.
		s.stats.StaleDataDropped++
		return
	}
	t := l.txn
	s.tbl.Fire(l.state, EvData)
	t.fromMem = pkt.FromMemory
	switch l.state {
	case IS_D:
		s.recordMissSource(t)
		s.completeDemand(l, Shared, t.markerSeq, pkt.Value)
	case IM_D:
		s.recordMissSource(t)
		s.completeDemand(l, Modified, t.markerSeq, pkt.Value)
	default:
		panic(fmt.Sprintf("snooping: data in %s", l.state))
	}
}

func (s *SnoopCache) recordMissSource(t *txn) {
	if t.fromMem {
		s.stats.MemoryMisses++
	} else {
		s.stats.SharingMisses++
	}
}

// SnoopMem is the snooping memory controller: it snoops every request in
// order, responds with data when memory is the owner, and tracks the owning
// cache so stale writebacks are ignored.
type SnoopMem struct {
	env Env
	tbl *Table
	dir *dirState
}

// NewSnoopMem builds the memory controller for one node's memory slice.
func NewSnoopMem(env Env) *SnoopMem {
	t := NewTable("snooping-memory")
	type se struct {
		s MemState
		e Event
	}
	for _, d := range []se{
		{MemOwner, EvMemGetS}, {CacheOwner, EvMemGetS},
		{MemOwner, EvMemGetM}, {CacheOwner, EvMemGetM},
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
	return &SnoopMem{env: env, tbl: t, dir: newDirState(env.Recycler)}
}

// Table returns the transition table.
func (m *SnoopMem) Table() *Table { return m.tbl }

// Reset clears the home-side block table and coverage for a new run,
// draining live directory entries into the free list.
func (m *SnoopMem) Reset() {
	m.dir.reset()
	m.tbl.ResetCoverage()
}

// Snapshot renders the home-side block table in address order, for tests
// that compare two controllers' states.
func (m *SnoopMem) Snapshot() string { return m.dir.snapshot() }

// Checkpoint makes the current home-side block state the state Rollback
// returns to.
func (m *SnoopMem) Checkpoint() { m.dir.blocks.checkpoint() }

// Rollback is Reset, but returns the block table to its state at the last
// Checkpoint; see dirState.rollback.
func (m *SnoopMem) Rollback() bool {
	if !m.dir.rollback() {
		return false
	}
	m.tbl.ResetCoverage()
	return true
}

// OwnerOf exposes the tracked owner (tests and preheating).
func (m *SnoopMem) OwnerOf(addr Addr) network.NodeID { return m.dir.entry(addr).ownerOf() }

// Preheat installs home state for warm-started workloads.
func (m *SnoopMem) Preheat(addr Addr, owner network.NodeID, value uint64) {
	e := m.dir.entry(addr)
	if owner == MemoryOwner {
		e.state = MemOwner
		e.owner = MemoryOwner
	} else {
		e.setCacheOwner(owner)
	}
	e.value = value
}

// OnOrdered snoops one request.
func (m *SnoopMem) OnOrdered(msg *network.Message) {
	pkt := msg.Payload.(*Packet)
	if m.env.HomeOf(pkt.Addr) != m.env.Self {
		return
	}
	m.process(msg.Seq, pkt)
}

func (m *SnoopMem) process(seq uint64, pkt *Packet) {
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
	switch pkt.Kind {
	case GetS:
		m.tbl.Fire(e.state, EvMemGetS)
		if e.state == MemOwner {
			m.sendData(pkt, seq, e.value)
		}
		// CacheOwner: the owning cache snoops the same request and responds.
	case GetM:
		m.tbl.Fire(e.state, EvMemGetM)
		if e.state == MemOwner {
			// Memory always supplies data: the HasData hint can be stale
			// (the requestor may have lost its S copy to a racing GetM
			// whose owner has since written back), and snooping memory
			// keeps no sharer state to repair it.
			m.sendData(pkt, seq, e.value)
			e.setCacheOwner(pkt.Requestor)
		} else if e.owner != pkt.Requestor {
			e.setCacheOwner(pkt.Requestor)
		}
		// owner == requestor: an O->M upgrade; ownership unchanged.
	case PutM:
		if e.state == CacheOwner && e.owner == pkt.Requestor {
			m.tbl.Fire(e.state, EvMemPutMOwner)
			e.acceptWB(pkt.Requestor)
		} else {
			m.tbl.Fire(e.state, EvMemPutMStale)
		}
	default:
		panic(fmt.Sprintf("snooping memory: unexpected %s", pkt.Kind))
	}
}

func (m *SnoopMem) sendData(req *Packet, seq uint64, value uint64) {
	resp := m.env.newPacket()
	resp.Kind = Data
	resp.Addr = req.Addr
	resp.Requestor = req.Requestor
	resp.Sender = m.env.Self
	resp.TxnID = req.TxnID
	resp.EffSeq = seq
	resp.Value = value
	resp.FromMemory = true
	m.env.sendUnorderedAfter(sim.DRAMAccess, req.Requestor, Data.Size(), resp)
}

// OnUnordered receives writeback data.
func (m *SnoopMem) OnUnordered(pkt *Packet) {
	if pkt.Kind != DataWB {
		panic(fmt.Sprintf("snooping memory: unexpected %s", pkt.Kind))
	}
	e := m.dir.entry(pkt.Addr)
	if e.state != MemWB || e.wbFrom != pkt.Sender {
		panic("snooping memory: unexpected writeback data")
	}
	m.tbl.Fire(e.state, EvMemDataWB)
	if m.env.Checker != nil {
		m.env.Checker.WBCommit(m.env.Self, pkt.Addr, pkt.EffSeq, pkt.Value)
	}
	e.completeWB(pkt.Value)
	m.env.progress()
	// Replay the deferred same-block work in arrival order. The waiting
	// slice is truncated in place (capacity retained); an entry that
	// re-parks — the replayed work re-enters MemWB — appends behind the
	// read cursor, never overtaking it.
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
func (m *SnoopMem) HomeValue(addr Addr) (uint64, bool) { return m.dir.homeValue(addr) }
