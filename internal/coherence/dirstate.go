package coherence

import (
	"fmt"
	"strings"

	"repro/internal/network"
)

// memWait is one unit of same-block work parked while a writeback is in
// flight (state == MemWB): the ordered sequence (zero for the directory
// protocol's unordered requests) and the retained request packet.
type memWait struct {
	seq uint64
	pkt *Packet
}

// dirEntry is the per-block state a memory controller keeps for blocks it is
// home for. Snooping uses only the owner field. The paper's memory keeps
// "one bit of state ... to indicate if it is the owner" (Section 3.1); this
// keeps the owner's identity instead, so a PutM from a cache that has
// already lost ownership to a later GetM is recognized as stale from local
// state alone and ignored. Directory and BASH additionally keep the sharer
// superset.
type dirEntry struct {
	state MemState
	// logged marks an entry whose checkpoint value is already in the
	// block table's undo log (or that did not exist at the checkpoint).
	logged  bool
	owner   network.NodeID // valid when state == CacheOwner
	sharers network.Mask   // superset of S copies, excluding the owner
	value   uint64         // memory's copy of the data token (verification)

	// wbFrom is the cache whose writeback is in flight while state == MemWB.
	wbFrom network.NodeID

	// waiting holds same-block work deferred while state == MemWB, in a
	// list taken from the Recycler's pool on the first deferral; nil
	// otherwise.
	waiting []memWait
}

// dirState is the home-side block table. Entries default to "memory owns,
// no sharers" (all memory is initially clean at memory). Entries recycle
// through the system's shared Recycler so a pooled System's warmed
// directory capacity survives reuse.
type dirState struct {
	blocks blockTable[dirEntry]
	rec    *Recycler
}

func newDirState(rec *Recycler) *dirState {
	return &dirState{rec: rec}
}

// reset returns every block to clean-at-memory, keeping the table's slot
// arrays and draining the live entries and their waiting lists into the
// recycler (parked packets dropped, for Recycler.Reclaim) so the next run
// materializes its working set without allocating. It ends any checkpoint.
func (d *dirState) reset() {
	for _, e := range d.blocks.vals {
		if e != nil {
			d.rec.putDirEntry(e)
		}
	}
	d.blocks.clear()
}

// rollback returns the block table to its state at the last checkpoint by
// replaying its undo log, dropping parked packets as reset does, and
// checkpoints again. It reports false, changing nothing, when the table
// holds no checkpoint; the caller must then reset.
func (d *dirState) rollback() bool {
	added, saved, ok := d.blocks.rewind()
	if !ok {
		return false
	}
	for _, a := range added {
		if e := d.blocks.get(a); e != nil {
			d.blocks.del(a)
			d.rec.putDirEntry(e)
		}
	}
	for i := range saved {
		s := &saved[i]
		e := d.blocks.get(s.addr)
		if e == nil {
			e = d.rec.getDirEntry()
			d.blocks.put(s.addr, e)
		}
		d.rec.putWaitList(e.waiting)
		*e = s.val
		e.waiting = nil
	}
	d.blocks.checkpoint()
	return true
}

// entry returns the entry for addr, materializing the default. While the
// table is logging, the entry's checkpoint value is saved on its first
// lookup since the checkpoint.
func (d *dirState) entry(addr Addr) *dirEntry {
	e := d.blocks.get(addr)
	if e == nil {
		e = d.rec.getDirEntry()
		e.logged = d.blocks.logging
		d.blocks.put(addr, e)
	} else if d.blocks.logging && !e.logged {
		d.blocks.save(addr, e)
		e.logged = true
	}
	return e
}

// peek returns the entry if present without materializing it.
func (d *dirState) peek(addr Addr) *dirEntry { return d.blocks.get(addr) }

// ownerOf returns the owner node, or MemoryOwner.
func (e *dirEntry) ownerOf() network.NodeID {
	if e.state == CacheOwner {
		return e.owner
	}
	return MemoryOwner
}

// setCacheOwner installs a new owning cache and resets the sharer set (a GetM
// invalidated every other copy).
func (e *dirEntry) setCacheOwner(n network.NodeID) {
	e.state = CacheOwner
	e.owner = n
	e.sharers = network.Mask{}
}

// addSharer records a new S copy (GetS by n).
func (e *dirEntry) addSharer(n network.NodeID) { e.sharers.Set(n) }

// acceptWB transitions to the writeback-pending state. Sharer state is
// preserved: S copies survive an owner writeback.
func (e *dirEntry) acceptWB(from network.NodeID) {
	e.state = MemWB
	e.owner = MemoryOwner
	e.wbFrom = from
}

// completeWB lands the writeback data.
func (e *dirEntry) completeWB(value uint64) {
	e.state = MemOwner
	e.value = value
}

// homeValue implements the MemController HomeValue query.
func (d *dirState) homeValue(addr Addr) (uint64, bool) {
	e := d.peek(addr)
	if e == nil {
		return 0, true
	}
	return e.value, e.state == MemOwner
}

// snapshot renders every entry in address order (see Snapshot on the
// memory controllers).
func (d *dirState) snapshot() string {
	var b strings.Builder
	for _, a := range sortedKeys(&d.blocks) {
		e := d.blocks.get(a)
		fmt.Fprintf(&b, "dir %d: %s owner %d sharers %s value %d wbFrom %d waiting %d\n",
			a, e.state, e.owner, e.sharers, e.value, e.wbFrom, len(e.waiting))
	}
	return b.String()
}
