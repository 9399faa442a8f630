package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/sim"
)

// DirCache is the cache controller of the GS320-style directory protocol of
// Section 3.2: requests are unicast (unordered) to the home directory, which
// either responds directly (data on the unordered network plus a marker on
// the totally ordered multicast network) or forwards the request on the
// ordered network to the owner, sharers and requestor. The total order of
// the forwarded-request network eliminates explicit invalidation acks.
type DirCache struct {
	ctrlCore
}

// NewDirCache builds a directory-protocol cache controller.
func NewDirCache(env Env, arrayCfg cache.Config) *DirCache {
	d := &DirCache{}
	d.init(env, d, dirCacheTable(), arrayCfg)
	d.pending = pendingStates{
		fetchLoad:    IS_A,
		fetchStore:   IM_A,
		upgradeFromS: SM_A,
		upgradeFromO: OM_A,
	}
	return d
}

func dirCacheTable() *Table {
	t := NewTable("directory-cache")
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
		// Markers from the directory (direct response, forward copy, inval
		// copy).
		{IS_A, EvMarker}, {IM_A, EvMarker}, {SM_A, EvMarker}, {OM_A, EvMarker},
		// Forwards addressed to this cache as owner.
		{Modified, EvFwdGetS}, {Modified, EvFwdGetM},
		{Owned, EvFwdGetS}, {Owned, EvFwdGetM},
		{OM_A, EvFwdGetS}, {OM_A, EvFwdGetM},
		{MI_A, EvFwdGetS}, {MI_A, EvFwdGetM},
		{OI_A, EvFwdGetS}, {OI_A, EvFwdGetM},
		{IM_D, EvFwdGetS}, {IM_D, EvFwdGetM}, // deferred at the owner-designate
		{SM_D, EvFwdGetS}, {SM_D, EvFwdGetM}, // deferred at the owner-designate
		// Invalidations addressed to this cache as a (superset) sharer.
		{Shared, EvInval}, {SM_A, EvInval},
		{IS_A, EvInval}, {IM_A, EvInval},
		{IS_D, EvInval}, // deferred; a GetM requestor cannot be a sharer target
		// Writeback resolution. (No II_A forward rows: the directory set a
		// new owner when it emitted the forward that created II_A.)
		{MI_A, EvWBMarker}, {OI_A, EvWBMarker}, {II_A, EvWBStale},
		// Data responses.
		{IS_A, EvData}, {IM_A, EvData}, {SM_A, EvData},
		{IS_D, EvData}, {IM_D, EvData}, {SM_D, EvData},
	} {
		t.Declare(d.s, d.e)
	}
	return t
}

// Access dispatches processor operations.
func (d *DirCache) Access(op Op, done func()) {
	if l := d.lines.get(op.Addr); l == nil || l.txn == nil {
		ev := EvLoad
		if op.Store {
			ev = EvStore
		}
		d.tbl.Fire(d.StateOf(op.Addr), ev)
	}
	d.ctrlCore.Access(op, done)
}

func (d *DirCache) issueDemand(l *line, t *txn) {
	d.stats.UnicastRequests++
	d.sendRequest(l, t)
}

func (d *DirCache) issueWB(l *line, t *txn) {
	d.tbl.Fire(mustWBOrigin(l.state), EvReplace)
	d.sendRequest(l, t)
}

func (d *DirCache) sendRequest(l *line, t *txn) {
	pkt := d.env.newPacket()
	pkt.Kind = t.kind
	pkt.Addr = l.addr
	pkt.Requestor = d.env.Self
	pkt.Sender = d.env.Self
	pkt.TxnID = t.id
	pkt.HasData = t.hasData
	d.env.sendUnordered(d.env.HomeOf(l.addr), t.kind.Size(), pkt)
}

// OnOrdered receives forwarded requests, invalidations, and markers.
func (d *DirCache) OnOrdered(m *network.Message) {
	pkt := m.Payload.(*Packet)
	switch pkt.Kind {
	case WBMarker, WBStale:
		if pkt.Requestor == d.env.Self {
			d.wbResolution(m.Seq, pkt)
		}
		return
	}
	if pkt.Owner == d.env.Self && pkt.Requestor != d.env.Self {
		l := d.lookup(pkt.Addr)
		if l == nil {
			panic(fmt.Sprintf("directory: forward to owner with no line: self=%d pkt=%v owner=%d seq=%d", d.env.Self, pkt, pkt.Owner, m.Seq))
		}
		d.foreign(l, m.Seq, pkt)
		return
	}
	if pkt.Requestor == d.env.Self {
		d.marker(m.Seq, pkt)
		return
	}
	// Invalidation (or forward multicast copy) addressed to a sharer.
	l := d.lookup(pkt.Addr)
	if l == nil {
		return // stale superset membership, no copy
	}
	d.shInval(l, m.Seq, pkt)
}

// marker processes the ordered message that fixes this requestor's place in
// the total order.
func (d *DirCache) marker(seq uint64, pkt *Packet) {
	l := d.lookup(pkt.Addr)
	if l == nil || l.txn == nil || l.txn.id != pkt.TxnID {
		panic("directory: marker without matching transaction")
	}
	t := l.txn
	t.markerSeq = seq
	t.needData = pkt.NeedsData
	d.tbl.Fire(l.state, EvMarker)
	switch l.state {
	case IS_A:
		if t.dataSeen {
			d.recordMissSource(t)
			d.completeDemand(l, Shared, seq, t.dataValue)
		} else {
			l.state = IS_D
		}
	case IM_A:
		if t.dataSeen {
			d.recordMissSource(t)
			d.completeDemand(l, Modified, seq, t.dataValue)
		} else {
			l.state = IM_D
		}
	case SM_A:
		if !pkt.NeedsData {
			// Upgrade granted: the directory saw us still in the sharer set,
			// so no conflicting write intervened and our copy is current.
			d.stats.Upgrades++
			d.completeDemand(l, Modified, seq, l.value)
		} else if t.dataSeen {
			d.recordMissSource(t)
			d.completeDemand(l, Modified, seq, t.dataValue)
		} else {
			l.state = SM_D
		}
	case OM_A:
		if pkt.NeedsData {
			panic("directory: owner upgrade marked as needing data")
		}
		d.stats.Upgrades++
		d.completeDemand(l, Modified, seq, l.value)
	default:
		panic(fmt.Sprintf("directory: marker in %s", l.state))
	}
}

// foreign handles forwards addressed to this cache as owner; it is also the
// replay entry after completion, so it re-classifies the message the same
// way OnOrdered does (a FwdGetM multicast reaches the sharers too, as their
// invalidation).
func (d *DirCache) foreign(l *line, seq uint64, pkt *Packet) {
	if pkt.Kind == Inval || pkt.Owner != d.env.Self {
		d.shInval(l, seq, pkt)
		return
	}
	ev := EvFwdGetS
	if pkt.Kind == FwdGetM {
		ev = EvFwdGetM
	}
	d.tbl.Fire(l.state, ev)
	switch l.state {
	case Modified:
		d.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvFwdGetM {
			l.state = Invalid
			d.array.Remove(l.addr)
			d.release(l)
		} else {
			l.state = Owned
		}
	case Owned:
		d.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvFwdGetM {
			l.state = Invalid
			d.array.Remove(l.addr)
			d.release(l)
		}
	case OM_A:
		d.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvFwdGetM {
			l.state = IM_A
		}
	case MI_A:
		d.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvFwdGetM {
			l.state = II_A
		} else {
			l.state = OI_A
		}
	case OI_A:
		d.respondData(pkt.Requestor, l.addr, l.value, seq, pkt.TxnID)
		if ev == EvFwdGetM {
			l.state = II_A
		}
	case IM_D, SM_D:
		d.defer_(l, seq, pkt)
	default:
		// II_A and IS_D are impossible here: the directory set a new owner
		// when it emitted the forward that created II_A, and a GetS never
		// makes its requestor the owner.
		panic(fmt.Sprintf("directory: forward %s in %s", pkt.Kind, l.state))
	}
}

// shInval handles an invalidation addressed to a (superset) sharer.
func (d *DirCache) shInval(l *line, seq uint64, pkt *Packet) {
	if l.state == Invalid {
		return
	}
	d.tbl.Fire(l.state, EvInval)
	switch l.state {
	case Shared:
		l.state = Invalid
		d.array.Remove(l.addr)
		d.release(l)
	case SM_A:
		// Our S copy dies before our own upgrade is ordered; the directory
		// will see us out of the sharer set and arrange a data transfer.
		l.state = IM_A
	case IS_A, IM_A:
		// Stale superset membership; no copy to invalidate.
	case IS_D:
		d.defer_(l, seq, pkt)
	default:
		// IM_D/SM_D invals are impossible: the directory cleared the sharer
		// set when it made this cache the owner-designate.
		panic(fmt.Sprintf("directory: inval in %s", l.state))
	}
}

func (d *DirCache) wbResolution(seq uint64, pkt *Packet) {
	l := d.lookup(pkt.Addr)
	if l == nil || l.txn == nil || !l.txn.isWB {
		panic("directory: writeback resolution without WB transaction")
	}
	if pkt.Kind == WBMarker {
		d.tbl.Fire(l.state, EvWBMarker)
		switch l.state {
		case MI_A, OI_A:
			d.respondWBData(l, seq)
			d.completeWB(l)
		default:
			panic(fmt.Sprintf("directory: WBMarker in %s", l.state))
		}
		return
	}
	d.tbl.Fire(l.state, EvWBStale)
	if l.state != II_A {
		panic(fmt.Sprintf("directory: WBStale in %s", l.state))
	}
	d.completeWB(l)
}

// OnUnordered receives data responses.
func (d *DirCache) OnUnordered(pkt *Packet) {
	if pkt.Kind != Data {
		panic(fmt.Sprintf("directory cache: unexpected %s", pkt.Kind))
	}
	l := d.lookup(pkt.Addr)
	if l == nil || l.txn == nil || l.txn.id != pkt.TxnID {
		d.stats.StaleDataDropped++
		return
	}
	t := l.txn
	t.fromMem = pkt.FromMemory
	d.tbl.Fire(l.state, EvData)
	switch l.state {
	case IS_A, IM_A, SM_A:
		t.dataSeen = true
		t.dataValue = pkt.Value
	case IS_D:
		d.recordMissSource(t)
		d.completeDemand(l, Shared, t.markerSeq, pkt.Value)
	case IM_D, SM_D:
		d.recordMissSource(t)
		d.completeDemand(l, Modified, t.markerSeq, pkt.Value)
	default:
		panic(fmt.Sprintf("directory: data in %s", l.state))
	}
}

func (d *DirCache) recordMissSource(t *txn) {
	if t.fromMem {
		d.stats.MemoryMisses++
	} else {
		d.stats.SharingMisses++
	}
}

// debugAddr, when non-nil, traces directory applies for one block (tests).
var debugAddr *Addr

// SetDebugAddr enables directory apply tracing for a block (tests only).
func SetDebugAddr(a Addr) { debugAddr = &a }

// DirMem is the directory controller: it serializes racing requests, keeps
// the owner and a sharer superset per block, responds directly when it has
// sufficient permissions, and forwards on the totally ordered multicast
// network otherwise.
type DirMem struct {
	env Env
	tbl *Table
	dir *dirState
}

// dirApplyTask defers one request's directory apply behind the DRAM access
// latency (sim.Task implementation, free-listed on the shared Recycler so
// every home's pending applies draw from one warmed pool).
type dirApplyTask struct {
	m   *DirMem
	pkt *Packet
}

// Run applies the carried request and releases its retained reference. The
// task recycles itself first, so applies that schedule further work can
// reuse it immediately.
func (t *dirApplyTask) Run() {
	m, pkt := t.m, t.pkt
	m.env.Recycler.putApplyTask(t)
	m.apply(pkt)
	m.env.Recycler.Release(pkt)
}

// NewDirMem builds a directory controller for one node's memory slice.
func NewDirMem(env Env) *DirMem {
	t := NewTable("directory-memory")
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
	return &DirMem{env: env, tbl: t, dir: newDirState(env.Recycler)}
}

// Table returns the transition table.
func (m *DirMem) Table() *Table { return m.tbl }

// Reset clears the directory's block table and coverage for a new run,
// draining live directory entries into the free list.
func (m *DirMem) Reset() {
	m.dir.reset()
	m.tbl.ResetCoverage()
}

// Snapshot renders the home-side block table in address order, for tests
// that compare two controllers' states.
func (m *DirMem) Snapshot() string { return m.dir.snapshot() }

// Checkpoint makes the current home-side block state the state Rollback
// returns to.
func (m *DirMem) Checkpoint() { m.dir.blocks.checkpoint() }

// Rollback is Reset, but returns the block table to its state at the last
// Checkpoint; see dirState.rollback.
func (m *DirMem) Rollback() bool {
	if !m.dir.rollback() {
		return false
	}
	m.tbl.ResetCoverage()
	return true
}

// Preheat installs home state for warm-started workloads.
func (m *DirMem) Preheat(addr Addr, owner network.NodeID, value uint64) {
	e := m.dir.entry(addr)
	if owner == MemoryOwner {
		e.state = MemOwner
		e.owner = MemoryOwner
	} else {
		e.setCacheOwner(owner)
	}
	e.value = value
}

// OnOrdered: the directory emits onto the ordered network but receives
// nothing from it (its own node's cache handles those deliveries).
func (m *DirMem) OnOrdered(msg *network.Message) {}

// OnUnordered receives requests and writeback data.
func (m *DirMem) OnUnordered(pkt *Packet) {
	if pkt.Kind == DataWB {
		m.dataWB(pkt)
		return
	}
	// Directory access: 80 ns DRAM directory lookup before acting. Applies
	// are scheduled with a fixed delay, so they retire in arrival order.
	// The packet outlives its delivery; retain it for the apply.
	m.env.Recycler.Retain(pkt)
	m.env.Kernel.ScheduleTask(sim.DRAMAccess, m.env.Recycler.getApplyTask(m, pkt))
}

func (m *DirMem) apply(pkt *Packet) {
	e := m.dir.entry(pkt.Addr)
	if debugAddr != nil && *debugAddr == pkt.Addr {
		fmt.Printf("t=%d dir@%d apply %s req=%d txn=%d state=%s owner=%d sharers=%s\n",
			m.env.Kernel.Now(), m.env.Self, pkt.Kind, pkt.Requestor, pkt.TxnID, e.state, e.owner, e.sharers)
	}
	if e.state == MemWB {
		ev := EvMemGetS
		switch pkt.Kind {
		case GetM:
			ev = EvMemGetM
		case PutM:
			ev = EvMemPutMStale
		}
		m.tbl.Fire(e.state, ev)
		m.env.Recycler.wait(e, 0, pkt)
		return
	}
	req := pkt.Requestor
	switch pkt.Kind {
	case GetS:
		m.tbl.Fire(e.state, EvMemGetS)
		if e.state == MemOwner {
			m.sendData(req, pkt, e.value)
			m.emit(Marker, pkt, MemoryOwner, true, network.MaskOf(req))
		} else {
			m.emit(FwdGetS, pkt, e.owner, true, network.MaskOf(e.owner, req))
		}
		e.addSharer(req)
	case GetM:
		m.tbl.Fire(e.state, EvMemGetM)
		switch {
		case e.state == MemOwner:
			needData := !(pkt.HasData && e.sharers.Has(req))
			targets := e.sharers
			targets.Set(req)
			m.emit(Inval, pkt, MemoryOwner, needData, targets)
			if needData {
				m.sendData(req, pkt, e.value)
			}
			e.setCacheOwner(req)
		case e.owner == req:
			// O -> M upgrade by the owner: invalidate the sharers; the
			// requestor's copy of the multicast is its marker.
			targets := e.sharers
			targets.Set(req)
			m.emit(Inval, pkt, MemoryOwner, false, targets)
			e.setCacheOwner(req)
		default:
			targets := e.sharers
			targets.Set(req)
			targets.Set(e.owner)
			m.emit(FwdGetM, pkt, e.owner, true, targets)
			e.setCacheOwner(req)
		}
	case PutM:
		if e.state == CacheOwner && e.owner == pkt.Requestor {
			m.tbl.Fire(e.state, EvMemPutMOwner)
			e.acceptWB(pkt.Requestor)
			m.emit(WBMarker, pkt, 0, false, network.MaskOf(pkt.Requestor))
		} else {
			m.tbl.Fire(e.state, EvMemPutMStale)
			m.emit(WBStale, pkt, 0, false, network.MaskOf(pkt.Requestor))
		}
	default:
		panic(fmt.Sprintf("directory: unexpected request %s", pkt.Kind))
	}
}

// emit sends one ordered directory message derived from the request req:
// the marker/forward/invalidation multicasts and the writeback resolutions.
func (m *DirMem) emit(kind Kind, req *Packet, owner network.NodeID, needsData bool, targets network.Mask) {
	pkt := m.env.newPacket()
	pkt.Kind = kind
	pkt.Addr = req.Addr
	pkt.Requestor = req.Requestor
	pkt.Sender = m.env.Self
	pkt.TxnID = req.TxnID
	pkt.Owner = owner
	pkt.NeedsData = needsData
	m.env.sendOrdered(targets, kind.Size(), pkt)
}

func (m *DirMem) sendData(to network.NodeID, req *Packet, value uint64) {
	resp := m.env.newPacket()
	resp.Kind = Data
	resp.Addr = req.Addr
	resp.Requestor = to
	resp.Sender = m.env.Self
	resp.TxnID = req.TxnID
	resp.Value = value
	resp.FromMemory = true
	m.env.sendUnordered(to, Data.Size(), resp)
}

func (m *DirMem) dataWB(pkt *Packet) {
	e := m.dir.entry(pkt.Addr)
	if e.state != MemWB || e.wbFrom != pkt.Sender {
		panic("directory: unexpected writeback data")
	}
	m.tbl.Fire(e.state, EvMemDataWB)
	if m.env.Checker != nil {
		m.env.Checker.WBCommit(m.env.Self, pkt.Addr, pkt.EffSeq, pkt.Value)
	}
	e.completeWB(pkt.Value)
	m.env.progress()
	// Replay deferred same-block requests in arrival order (see the
	// snooping controller for why the list is detached).
	waiting := e.waiting
	e.waiting = nil
	for i := range waiting {
		w := waiting[i]
		waiting[i] = memWait{}
		m.apply(w.pkt)
		m.env.Recycler.Release(w.pkt)
	}
	m.env.Recycler.putWaitList(waiting)
}

// HomeValue reports memory's copy and ownership for a block.
func (m *DirMem) HomeValue(addr Addr) (uint64, bool) { return m.dir.homeValue(addr) }
