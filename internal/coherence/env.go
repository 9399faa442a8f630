package coherence

import (
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Env is the per-node environment handed to cache and memory controllers:
// the kernel, the interconnect, the node's identity, and shared hooks.
type Env struct {
	Kernel *sim.Kernel
	Net    *network.Network
	Self   network.NodeID
	// HomeOf maps a block to its home memory node (address interleaving).
	HomeOf func(Addr) network.NodeID
	// Checker, when non-nil, validates SWMR and value invariants.
	Checker *Checker
	// Progress, when non-nil, feeds the forward-progress watchdog.
	Progress func()
	// Recycler recycles protocol packets and the controllers' per-block
	// records; shared by every controller of a system, with the delivery
	// plumbing releasing the per-delivery packet reference (see Recycler).
	// Controller constructors default a nil recycler so directly built
	// controllers work, but then each controller recycles privately —
	// core.System wires one shared instance.
	Recycler *Recycler
}

func (e *Env) progress() {
	if e.Progress != nil {
		e.Progress()
	}
}

// newPacket draws a zeroed packet from the pool.
func (e *Env) newPacket() *Packet { return e.Recycler.Get() }

// sendOrdered transmits pkt on the totally ordered network, setting its
// reference count to the delivery fan-out.
func (e *Env) sendOrdered(targets network.Mask, size int, pkt *Packet) {
	pkt.refs = int32(targets.Count())
	e.Net.SendOrdered(e.Self, targets, size, pkt)
}

// sendOrderedAfter is sendOrdered behind a fixed service delay (DRAM or
// cache access time), without a per-call closure.
func (e *Env) sendOrderedAfter(delay sim.Time, targets network.Mask, size int, pkt *Packet) {
	pkt.refs = int32(targets.Count())
	e.Net.SendOrderedDelayed(delay, e.Self, targets, size, pkt)
}

// sendUnordered transmits pkt point-to-point (one delivery reference).
func (e *Env) sendUnordered(to network.NodeID, size int, pkt *Packet) {
	pkt.refs = 1
	e.Net.SendUnordered(e.Self, to, size, pkt)
}

// sendUnorderedAfter is sendUnordered behind a fixed service delay.
func (e *Env) sendUnorderedAfter(delay sim.Time, to network.NodeID, size int, pkt *Packet) {
	pkt.refs = 1
	e.Net.SendUnorderedDelayed(delay, e.Self, to, size, pkt)
}

// Op is one processor memory operation presented to the cache controller.
type Op struct {
	Store bool
	Addr  Addr
	// HintUnicast marks requests the software/hardware knows need no
	// broadcast — the paper's Section 7 example is instruction-fetch
	// misses. BASH bypasses the probabilistic decision for hinted ops.
	HintUnicast bool
}

// CacheController is the processor-facing and network-facing interface of a
// protocol's cache controller.
type CacheController interface {
	// Access performs one blocking memory operation; done runs at completion.
	Access(op Op, done func())
	// OnOrdered observes one totally-ordered network delivery.
	OnOrdered(m *network.Message)
	// OnUnordered receives a point-to-point message addressed to the cache.
	OnUnordered(p *Packet)
	// Stats exposes the controller's counters.
	Stats() *CacheStats
	// StateOf reports the coherence state the cache holds for a block.
	StateOf(a Addr) State
	// ValueOf reports the data token the cache holds for a block.
	ValueOf(a Addr) uint64
	// Table exposes the transition table (Table 1 accounting).
	Table() *Table
	// Preheat installs a stable state without protocol traffic (warm start).
	Preheat(a Addr, st State, value uint64)
	// LatencyHistogram exposes the demand-miss latency distribution.
	LatencyHistogram() *stats.Histogram
	// Reset returns the controller to its freshly constructed state for a
	// new run, retaining grown allocations (pooled-lifecycle support).
	Reset()
	// Checkpoint makes the current block state the state Rollback returns
	// to; Reset ends the checkpoint.
	Checkpoint()
	// Rollback is Reset followed by re-installing the checkpoint's block
	// state, in time proportional to what the run touched. It reports
	// false, changing nothing, when there is no checkpoint to return to.
	Rollback() bool
}

// MemController is the memory/directory side of a node.
type MemController interface {
	OnOrdered(m *network.Message)
	OnUnordered(p *Packet)
	Table() *Table
	// Reset clears per-run home-side state (pooled-lifecycle support).
	Reset()
	// Checkpoint and Rollback are as for CacheController.
	Checkpoint()
	Rollback() bool
	// Preheat installs home-side state (owner, value) without traffic.
	Preheat(a Addr, owner network.NodeID, value uint64)
	// HomeValue reports the memory copy of a block and whether memory is
	// the current owner (quiesce-time agreement checks).
	HomeValue(a Addr) (value uint64, memOwner bool)
}

// CacheStats counts cache controller activity.
type CacheStats struct {
	Loads, Stores     uint64
	Hits, Misses      uint64
	SharingMisses     uint64 // satisfied by another cache (cache-to-cache)
	MemoryMisses      uint64 // satisfied by memory
	Upgrades          uint64 // completed without a data transfer
	Writebacks        uint64
	BroadcastRequests uint64
	UnicastRequests   uint64 // includes BASH dualcasts and predicted multicasts
	Reissues          uint64 // nack-driven broadcast reissues
	StaleDataDropped  uint64
	Predicted         uint64 // requests whose mask the owner predictor extended
	PredictedHits     uint64 // predicted requests satisfied by their first instance
	MissLatencySum    sim.Time
	MissLatencyCount  uint64
}

// AvgMissLatency returns the mean demand miss latency in nanoseconds.
func (s *CacheStats) AvgMissLatency() float64 {
	if s.MissLatencyCount == 0 {
		return 0
	}
	return float64(s.MissLatencySum) / float64(s.MissLatencyCount)
}
