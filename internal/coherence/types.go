// Package coherence implements the three MOSI cache coherence protocols of
// the paper: the UE10000-style broadcast Snooping protocol (Section 3.1),
// the GS320-style Directory protocol (Section 3.2), and BASH, the Bandwidth
// Adaptive Snooping Hybrid (Section 3.3).
//
// All three protocols are write-invalidate, use the MOSI states, allow
// silent S->I downgrades, and support GetS, GetM and PutM (writeback of an M
// or O copy) transactions. Processors are blocking: at most one outstanding
// demand miss plus one outstanding victim writeback, matching the paper's
// processor model.
//
// # Ordering discipline
//
// The totally ordered request network assigns every request instance a
// global sequence number; every controller observes same-block instances in
// that order. Responses (data/acks) are tagged with the sequence number of
// the instance that satisfied the transaction (its "effective instance"),
// which lets a requestor classify deferred foreign requests as ordered
// before or after its own transaction. Instances ordered before the
// effective one are already reflected in the data it received and are
// dropped; later ones are applied, in order, to the state the transaction
// leaves behind.
package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/network"
)

// Addr aliases the cache block address type.
type Addr = cache.Addr

// MemoryOwner is the sentinel "memory is the owner" node value in directory
// state and packets.
const MemoryOwner network.NodeID = -1

// Kind enumerates protocol message kinds across all three protocols.
type Kind uint8

// Message kinds. GetS/GetM/PutM travel on the ordered request network in
// Snooping and BASH and on the unordered network in Directory. Fwd*/Inval/
// Marker/WBMarker/WBStale are Directory messages on the ordered forwarded-
// request network. Data/DataWB/Ack/Nack travel on the unordered response
// network.
const (
	GetS Kind = iota
	GetM
	PutM
	FwdGetS
	FwdGetM
	Inval
	Marker
	WBMarker
	WBStale
	Data
	DataWB
	Ack
	Nack
	// NumKinds counts the kinds above: arrays indexed by Kind have this
	// length.
	NumKinds
)

var kindNames = [NumKinds]string{
	"GetS", "GetM", "PutM", "FwdGetS", "FwdGetM", "Inval", "Marker",
	"WBMarker", "WBStale", "Data", "DataWB", "Ack", "Nack",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message sizes from the paper (Section 4.2): all request, forwarded
// request, retried request and control messages are 8 bytes; data responses
// are 72 bytes (64-byte block plus 8-byte header).
const (
	ControlBytes = 8
	DataBytes    = 72
)

// Size returns the wire size in bytes of a message of this kind.
func (k Kind) Size() int {
	if k == Data || k == DataWB {
		return DataBytes
	}
	return ControlBytes
}

// Packet is the protocol-level payload carried by network messages.
type Packet struct {
	Kind       Kind
	Addr       Addr
	Requestor  network.NodeID // transaction requestor
	Sender     network.NodeID // immediate sender
	TxnID      uint64         // unique transaction id (requestor-scoped)
	HasData    bool           // GetM: requestor already holds a valid copy
	Retry      uint8          // BASH: retry generation (0 = original)
	EffSeq     uint64         // responses: ordered seq of the effective instance
	Value      uint64         // data token for verification
	Owner      network.NodeID // Directory forwards: the node that must respond
	NeedsData  bool           // Directory forwards: owner must send data
	FromMemory bool           // Data: supplied by memory rather than a cache
	// Targets is the multicast mask of a BASH request instance. The memory
	// controller (and the owning cache, per the paper's footnote 2) compares
	// the directory state against the set of nodes that received the request
	// to decide sufficiency.
	Targets network.Mask

	// refs is the Recycler reference count: the number of pending
	// deliveries plus retained uses. Managed by the Env send helpers and
	// Recycler.Retain/Release; zero means the packet is reclaimable.
	refs int32
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s[a=%d req=%d txn=%d]", p.Kind, p.Addr, p.Requestor, p.TxnID)
}

// State enumerates cache controller states: the four MOSI stable states plus
// the transient states of the three protocols. Names follow the primer
// convention: XY_Z means "moving from X to Y, waiting for Z", where A is the
// own request appearing on the ordered network (the marker) and D is data.
type State uint8

// Cache controller states. The BASH-specific *P states ("pending") cover
// both the marker and data/ack waits because a BASH requestor cannot
// locally distinguish a sufficient instance from one the memory controller
// will retry; completion is signalled by a tagged Data or Ack.
const (
	Invalid  State = iota // I
	Shared                // S
	Owned                 // O
	Modified              // M

	IS_A // GetS issued, waiting for own marker (Snooping/Directory)
	IS_D // marker seen, waiting for data
	IM_A // GetM issued from I, waiting for own marker
	IM_D // marker seen, waiting for data
	SM_A // GetM issued from S (upgrade), waiting for own marker
	SM_D // upgrade downgraded mid-flight or directory decided data needed
	OM_A // GetM issued from O (owner upgrade), waiting for own marker/ack
	MI_A // PutM issued from M, waiting for own marker
	OI_A // PutM issued from O, waiting for own marker
	II_A // PutM issued, ownership lost mid-flight; waiting to retire marker

	IS_P // BASH: GetS pending (uniform defer mode)
	IM_P // BASH: GetM pending, needs data
	SM_P // BASH: GetM pending from S
	OM_P // BASH: owner upgrade pending (owner duties continue)

	numStates
)

var stateNames = [numStates]string{
	"I", "S", "O", "M",
	"IS_A", "IS_D", "IM_A", "IM_D", "SM_A", "SM_D", "OM_A", "MI_A", "OI_A", "II_A",
	"IS_P", "IM_P", "SM_P", "OM_P",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Index returns the dense transition-table index of the state.
func (s State) Index() int { return int(s) }

// IsStable reports whether s is one of the four MOSI stable states.
func (s State) IsStable() bool { return s <= Modified }

// IsOwnerState reports whether a cache in this state holds the current data
// and must respond to foreign requests (M, O and the owner-side transients).
func (s State) IsOwnerState() bool {
	switch s {
	case Modified, Owned, OM_A, OM_P, MI_A, OI_A:
		return true
	}
	return false
}

// HasValidData reports whether the cache holds a readable copy in s.
func (s State) HasValidData() bool {
	switch s {
	case Shared, Owned, Modified, SM_A, SM_P, OM_A, OM_P, MI_A, OI_A:
		return true
	}
	return false
}

// Event enumerates cache and memory controller events for the transition
// tables (and for the Table 1 complexity counts).
type Event uint8

// Cache controller events.
const (
	EvLoad Event = iota
	EvStore
	EvReplace   // demand insertion chose this block as victim
	EvOwnReq    // own GetS/GetM instance observed on the ordered network
	EvOwnPutM   // own PutM instance observed (writeback marker)
	EvOtherGetS // foreign GetS instance (Snooping/BASH) or replayed
	EvOtherGetM // foreign GetM instance
	EvFwdGetS   // Directory: forwarded GetS addressed to this owner
	EvFwdGetM   // Directory: forwarded GetM addressed to this owner
	EvInval     // Directory: invalidation for a shared copy
	EvMarker    // Directory: marker for this requestor
	EvWBMarker  // Directory: writeback accepted
	EvWBStale   // Directory: writeback rejected (ownership already lost)
	EvData      // data response
	EvAck       // ack response (no data transfer needed)
	EvNack      // BASH: memory retry buffer full; reissue as broadcast

	// Memory controller events.
	EvMemGetS
	EvMemGetM
	EvMemPutMOwner    // PutM from the current owner (accept)
	EvMemPutMStale    // PutM from a non-owner (ignore)
	EvMemDataWB       // writeback data arrival
	EvMemInsufficient // BASH: instance whose mask misses the owner or sharers

	numEvents
)

var eventNames = [numEvents]string{
	"Load", "Store", "Replace", "OwnReq", "OwnPutM", "OtherGetS", "OtherGetM",
	"FwdGetS", "FwdGetM", "Inval", "Marker", "WBMarker", "WBStale", "Data",
	"Ack", "Nack",
	"MemGetS", "MemGetM", "MemPutMOwner", "MemPutMStale", "MemDataWB",
	"MemInsufficient",
}

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", uint8(e))
}

// Index returns the dense transition-table index of the event.
func (e Event) Index() int { return int(e) }

// MemState enumerates per-block memory/directory controller states.
type MemState uint8

// Memory controller states. MemWB is the transient "writeback accepted,
// waiting for data" state during which same-block requests are queued.
const (
	MemOwner   MemState = iota // memory is the owner
	CacheOwner                 // some cache is the owner
	MemWB                      // writeback accepted, data in flight

	numMemStates
)

var memStateNames = [numMemStates]string{"MemOwner", "CacheOwner", "MemWB"}

func (s MemState) String() string {
	if int(s) < len(memStateNames) {
		return memStateNames[s]
	}
	return fmt.Sprintf("MemState(%d)", uint8(s))
}

// Index returns the dense transition-table index of the memory state,
// offset past the cache-state range so a merged table never aliases the two
// (cache and memory controllers keep separate tables, but the offset makes
// the index space globally unambiguous).
func (s MemState) Index() int { return int(numStates) + int(s) }
