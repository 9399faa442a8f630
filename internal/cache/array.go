// Package cache models the finite L2 cache array of the target system:
// set-associative residency tracking with LRU replacement. Coherence state
// lives in the protocol controllers; the array answers "is this block
// resident" and "which block must be evicted to make room".
//
// The paper's target configuration is a 4 MB, 4-way set-associative unified
// L2 with 64-byte blocks (Section 5.2).
package cache

import (
	"fmt"
	"math/bits"
)

// Addr is a block (line) address: the byte address divided by the block size.
type Addr uint64

// Config sizes the array.
type Config struct {
	Sets int // number of sets (power of two recommended, not required)
	Ways int // associativity
}

// DefaultConfig is the paper's 4 MB / 4-way / 64 B L2: 16384 sets x 4 ways.
func DefaultConfig() Config { return Config{Sets: 16384, Ways: 4} }

// Lines returns total capacity in blocks.
func (c Config) Lines() int { return c.Sets * c.Ways }

type way struct {
	addr  Addr
	valid bool
	lru   uint64 // larger = more recently used
}

// Array is a set-associative residency map. The zero value is unusable; use
// New.
//
// Sets materialize lazily on first insert: the paper's 16384-set
// configuration is 1.5 MB of way state per node, and a short sweep cell
// touches a small fraction of it, so eagerly zeroing every set dominated
// the per-run setup cost of fleet-style experiment sweeps. For the same
// reason Reset clears only the sets written since the previous Reset, found
// through a one-bit-per-set dirty map, instead of walking all of them.
type Array struct {
	cfg   Config
	sets  [][]way  // nil per entry until first insert into that set
	dirty []uint64 // bit i set: set i was inserted into since the last Reset
	clock uint64
	size  int
}

// New builds an array for the configuration.
func New(cfg Config) *Array {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	return &Array{
		cfg:   cfg,
		sets:  make([][]way, cfg.Sets),
		dirty: make([]uint64, (cfg.Sets+63)/64),
	}
}

// Config returns the array geometry.
func (a *Array) Config() Config { return a.cfg }

// Reset empties the array without releasing its storage: already
// materialized sets are zeroed in place rather than dropped, so a reused
// array skips both the top-level table allocation and the per-set
// materialization cost for sets the previous run touched. Only sets marked
// dirty are visited; every other set is still zero from the Reset before,
// or was never materialized, since Insert is the only way a block becomes
// resident and Touch and Remove change only resident blocks' sets.
// Behaviour after Reset is indistinguishable from a fresh array (a zeroed
// way is invalid, exactly like a way in a never-materialized set).
func (a *Array) Reset() {
	for wi, w := range a.dirty {
		for w != 0 {
			clear(a.sets[wi*64+bits.TrailingZeros64(w)])
			w &= w - 1
		}
		a.dirty[wi] = 0
	}
	a.clock = 0
	a.size = 0
}

// Len returns the number of resident blocks.
func (a *Array) Len() int { return a.size }

// set returns the (possibly nil) set for addr; read paths range over it
// directly, since a nil set holds no blocks.
func (a *Array) set(addr Addr) []way {
	return a.sets[int(addr%Addr(a.cfg.Sets))]
}

// materialize returns the set for addr, allocating its ways on first use,
// and marks it dirty for the next Reset.
func (a *Array) materialize(addr Addr) []way {
	i := int(addr % Addr(a.cfg.Sets))
	a.dirty[i/64] |= 1 << (i % 64)
	if a.sets[i] == nil {
		a.sets[i] = make([]way, a.cfg.Ways)
	}
	return a.sets[i]
}

// Contains reports whether the block is resident, without touching LRU state.
func (a *Array) Contains(addr Addr) bool {
	s := a.set(addr)
	for i := range s {
		if s[i].valid && s[i].addr == addr {
			return true
		}
	}
	return false
}

// Touch marks the block most recently used and reports whether it was
// resident.
func (a *Array) Touch(addr Addr) bool {
	s := a.set(addr)
	for i := range s {
		if s[i].valid && s[i].addr == addr {
			a.clock++
			s[i].lru = a.clock
			return true
		}
	}
	return false
}

// Insert makes the block resident, evicting the least recently used
// non-pinned way if the set is full. pinned may be nil. It returns the
// evicted block address and whether an eviction happened. Inserting a block
// that is already resident only touches it. If every way in the set is
// pinned, Insert reports failure with ok=false and does not insert.
func (a *Array) Insert(addr Addr, pinned func(Addr) bool) (victim Addr, evicted, ok bool) {
	s := a.materialize(addr)
	a.clock++
	// Already resident?
	for i := range s {
		if s[i].valid && s[i].addr == addr {
			s[i].lru = a.clock
			return 0, false, true
		}
	}
	// Free way?
	for i := range s {
		if !s[i].valid {
			s[i] = way{addr: addr, valid: true, lru: a.clock}
			a.size++
			return 0, false, true
		}
	}
	// Evict LRU among non-pinned ways.
	vi := -1
	for i := range s {
		if pinned != nil && pinned(s[i].addr) {
			continue
		}
		if vi == -1 || s[i].lru < s[vi].lru {
			vi = i
		}
	}
	if vi == -1 {
		return 0, false, false
	}
	victim = s[vi].addr
	s[vi] = way{addr: addr, valid: true, lru: a.clock}
	return victim, true, true
}

// Remove makes the block non-resident (silent drop or invalidation) and
// reports whether it was resident.
func (a *Array) Remove(addr Addr) bool {
	s := a.set(addr)
	for i := range s {
		if s[i].valid && s[i].addr == addr {
			s[i].valid = false
			a.size--
			return true
		}
	}
	return false
}
