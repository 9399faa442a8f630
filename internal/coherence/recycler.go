package coherence

import "fmt"

// Recycler bundles the free lists of a system's simulation hot path: the
// protocol Packets every message carries, and the line / transaction /
// pended-queue / directory-entry records the controllers materialize and
// drop as blocks move through the machine. One Recycler is shared by every
// controller of a System (core wires it through Env), which matters for
// convergence: the system-wide population of live records is pinned by the
// protocol itself — one owner per block, one outstanding demand per
// processor — so the shared lists reach their high-water marks within a few
// hundred operations, while per-controller lists would each have to random-
// walk to their own maxima before allocation stopped.
//
// Packet lifecycle contract:
//
//   - The sender obtains a Packet with Get and hands it to the network via
//     the Env send helpers, which set the reference count to the number of
//     deliveries (one per target node of an ordered multicast, one for an
//     unordered unicast).
//   - The delivery plumbing (core.Node) holds one reference for the duration
//     of each Deliver* call and releases it when the node's controllers have
//     returned. Everything a controller, the checker, the predictor or the
//     statistics read synchronously during delivery is therefore covered.
//   - A controller that needs the packet after its handler returns — a
//     deferred foreign instance, a MemWB waiting list, a directory apply
//     scheduled behind the DRAM latency — must Retain it and Release it when
//     that retained use ends.
//   - Release with no outstanding reference panics (a double release is a
//     protocol-lifecycle bug, surfaced loudly); the release that drops the
//     last reference zeroes the Packet and returns it to the free list.
//
// A run abandoned mid-flight leaves packets out: still scheduled, deferred
// or waiting, possibly at several nodes at once, so no single holder can
// release them. Reclaim takes them all back at once: the Recycler keeps a
// list of every packet and directory-apply task it has handed out, and
// once the kernel and every controller have been reset nothing else refers
// to them. The free lists survive Reset, which is what keeps a warmed
// pooled System allocation-free.
//
// SetRecycle(false) is the escape hatch: reference counting (and its
// double-release check) stays on, but every get allocates and nothing is
// recycled, so a recycled run can be byte-compared against a fresh-
// allocation run. Behaviour is identical either way; the determinism tests
// assert it.
type Recycler struct {
	free      []*Packet
	noRecycle bool

	// allPackets and allApplies list every packet and directory-apply
	// task the free lists ever handed out (recycling runs only), for
	// Reclaim.
	allPackets []*Packet
	allApplies []*dirApplyTask

	lines   []*line
	txns    []*txn
	pends   sliceStack[pendedOp]
	defers  sliceStack[deferredMsg]
	waits   sliceStack[memWait]
	entries []*dirEntry
	applies []*dirApplyTask

	// live counts packets handed out and not yet fully released. After a
	// drained run (System.Quiesce) every packet has been released, so a
	// non-zero live count there is a leak; the lifecycle tests assert zero.
	live int

	// Gets and Reuses count packet allocations served in total and from the
	// free list (diagnostics and tests).
	Gets, Reuses uint64

	// DeferLists and WaitLists count the deferral lists handed to line
	// records and the waiting lists handed to directory entries
	// (diagnostics and tests).
	DeferLists, WaitLists uint64
}

// NewRecycler returns an empty recycler with recycling enabled.
func NewRecycler() *Recycler { return &Recycler{} }

// SetRecycle toggles free-list reuse; see the type comment. Callers flip
// it only at run boundaries (core.System wiring).
func (p *Recycler) SetRecycle(on bool) { p.noRecycle = !on }

// Reclaim returns every packet and directory-apply task still out to the
// free lists, zeroed, and sets Live to 0. It is for run boundaries only:
// the kernel (which drops pending events) and every controller sharing
// the Recycler (which drop parked packets) must have been reset first, so
// that nothing refers to the records any more. After a drained run there
// is nothing out and Reclaim only compares lengths. Records allocated
// while recycling was off were never listed and are left to the GC.
func (p *Recycler) Reclaim() {
	p.live = 0
	if len(p.free) != len(p.allPackets) {
		for _, pkt := range p.allPackets {
			*pkt = Packet{}
		}
		p.free = append(p.free[:0], p.allPackets...)
	}
	if len(p.applies) != len(p.allApplies) {
		for _, t := range p.allApplies {
			*t = dirApplyTask{}
		}
		p.applies = append(p.applies[:0], p.allApplies...)
	}
}

// Recycling reports whether free-list reuse is enabled.
func (p *Recycler) Recycling() bool { return !p.noRecycle }

// Get returns a zeroed Packet, from the free list when possible.
func (p *Recycler) Get() *Packet {
	p.Gets++
	p.live++
	if n := len(p.free); n > 0 && !p.noRecycle {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.Reuses++
		return pkt
	}
	pkt := &Packet{}
	if !p.noRecycle {
		p.allPackets = append(p.allPackets, pkt)
	}
	return pkt
}

// Retain adds a reference for a consumer that will hold the packet beyond
// the current delivery (deferral, waiting lists, scheduled applies).
func (p *Recycler) Retain(pkt *Packet) { pkt.refs++ }

// Release drops one reference. The last release zeroes and recycles the
// packet; a release past zero panics descriptively.
func (p *Recycler) Release(pkt *Packet) {
	pkt.refs--
	if pkt.refs < 0 {
		panic(fmt.Sprintf("coherence: packet double release: %s (refs %d)", pkt, pkt.refs))
	}
	if pkt.refs > 0 {
		return
	}
	p.live--
	if p.noRecycle {
		return
	}
	*pkt = Packet{}
	p.free = append(p.free, pkt)
}

// Live reports packets handed out and not yet fully released. Zero after a
// drained run, and after Reclaim.
func (p *Recycler) Live() int { return p.live }

// FreeLen reports the current packet free-list depth (tests/diagnostics).
func (p *Recycler) FreeLen() int { return len(p.free) }

// getLine materializes a line record for addr. Records hold no deferral
// list: few blocks ever defer, so a record takes one from getDeferList on
// its first deferral instead of being born with node-count capacity.
func (p *Recycler) getLine(addr Addr) *line {
	if n := len(p.lines); n > 0 && !p.noRecycle {
		l := p.lines[n-1]
		p.lines[n-1] = nil
		p.lines = p.lines[:n-1]
		l.addr = addr
		l.state = Invalid
		return l
	}
	return &line{addr: addr, state: Invalid}
}

// putLine returns a line record's deferral list, if any, zeroes the record
// and returns it to the free list. The caller must have removed it from
// its line map and recycled/dropped its transaction.
func (p *Recycler) putLine(l *line) {
	if p.noRecycle {
		return
	}
	p.putDeferList(l.deferred)
	*l = line{}
	p.lines = append(p.lines, l)
}

// getDeferList returns an empty deferral list: a pooled one, which keeps
// the capacity it grew to, or a new one of capacity capHint.
func (p *Recycler) getDeferList(capHint int) []deferredMsg {
	p.DeferLists++
	if q := p.defers.pop(); q != nil && !p.noRecycle {
		return q
	}
	return make([]deferredMsg, 0, capHint)
}

// putDeferList pools a deferral list empty, dropping any parked packet
// (for Reclaim).
func (p *Recycler) putDeferList(q []deferredMsg) {
	if q == nil || p.noRecycle {
		return
	}
	p.defers.push(q)
}

// waitListCap is the capacity of a new directory waiting list.
const waitListCap = 4

// getWaitList returns an empty waiting list, pooled when possible.
func (p *Recycler) getWaitList() []memWait {
	p.WaitLists++
	if q := p.waits.pop(); q != nil && !p.noRecycle {
		return q
	}
	return make([]memWait, 0, waitListCap)
}

// putWaitList pools a waiting list empty, dropping any parked packet
// (for Reclaim).
func (p *Recycler) putWaitList(q []memWait) {
	if q == nil || p.noRecycle {
		return
	}
	p.waits.push(q)
}

// wait parks same-block work on a home entry while its writeback is in
// flight, retaining the packet; the entry's first parked unit takes a
// waiting list from the pool.
func (p *Recycler) wait(e *dirEntry, seq uint64, pkt *Packet) {
	p.Retain(pkt)
	if e.waiting == nil {
		e.waiting = p.getWaitList()
	}
	e.waiting = append(e.waiting, memWait{seq: seq, pkt: pkt})
}

func (p *Recycler) getTxn() *txn {
	if n := len(p.txns); n > 0 && !p.noRecycle {
		t := p.txns[n-1]
		p.txns[n-1] = nil
		p.txns = p.txns[:n-1]
		return t
	}
	return &txn{}
}

// putTxn zeroes a completed transaction and returns it to the free list.
func (p *Recycler) putTxn(t *txn) {
	if p.noRecycle {
		return
	}
	*t = txn{}
	p.txns = append(p.txns, t)
}

// sliceStack is a free list of emptied slices, each keeping its capacity.
// Every slot of a pooled slice is zero: push clears the slots in use, and
// slots past the length were never written since the last push.
type sliceStack[T any] [][]T

// pop returns a pooled slice, or nil when there is none.
func (s *sliceStack[T]) pop() []T {
	n := len(*s)
	if n == 0 {
		return nil
	}
	q := (*s)[n-1]
	(*s)[n-1] = nil
	*s = (*s)[:n-1]
	return q
}

// push clears q, dropping what its slots reference to the GC, and pools it
// empty.
func (s *sliceStack[T]) push(q []T) {
	clear(q)
	*s = append(*s, q[:0])
}

// getPendQueue returns an empty pended-op slice with retained capacity, or
// nil (append allocates one).
func (p *Recycler) getPendQueue() []pendedOp {
	if p.noRecycle {
		return nil
	}
	return p.pends.pop()
}

func (p *Recycler) putPendQueue(q []pendedOp) {
	if q == nil || p.noRecycle {
		return
	}
	p.pends.push(q)
}

// getDirEntry materializes a home-side block entry (memory-owned default).
func (p *Recycler) getDirEntry() *dirEntry {
	if n := len(p.entries); n > 0 && !p.noRecycle {
		e := p.entries[n-1]
		p.entries[n-1] = nil
		p.entries = p.entries[:n-1]
		e.state = MemOwner
		e.owner = MemoryOwner
		return e
	}
	return &dirEntry{state: MemOwner, owner: MemoryOwner}
}

// getApplyTask materializes a directory-apply task for one request.
func (p *Recycler) getApplyTask(m *DirMem, pkt *Packet) *dirApplyTask {
	if n := len(p.applies); n > 0 && !p.noRecycle {
		t := p.applies[n-1]
		p.applies[n-1] = nil
		p.applies = p.applies[:n-1]
		t.m = m
		t.pkt = pkt
		return t
	}
	t := &dirApplyTask{m: m, pkt: pkt}
	if !p.noRecycle {
		p.allApplies = append(p.allApplies, t)
	}
	return t
}

func (p *Recycler) putApplyTask(t *dirApplyTask) {
	if p.noRecycle {
		return
	}
	t.m = nil
	t.pkt = nil
	p.applies = append(p.applies, t)
}

// putDirEntry returns an entry's waiting list, if any (dropping parked
// packets, for Reclaim), zeroes the entry and returns it to the free list.
func (p *Recycler) putDirEntry(e *dirEntry) {
	if p.noRecycle {
		return
	}
	p.putWaitList(e.waiting)
	*e = dirEntry{}
	p.entries = append(p.entries, e)
}
