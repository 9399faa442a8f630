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
	"slices"
	"strings"
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
// reason Reset clears only the sets changed since the previous Reset,
// found through one-bit-per-set maps, instead of walking all of them.
//
// Checkpoint and Rollback go one step further for runs that start from the
// same installed state: after Checkpoint the array saves each set's ways
// before its first Insert, Touch or Remove, and Rollback copies the saved
// ways back, so returning to the checkpoint costs the sets the run
// touched.
type Array struct {
	cfg Config
	// sets holds nil per entry until the first insert into that set.
	sets [][]way
	// dirty has bit i set when set i changed since the last Reset,
	// Checkpoint or Rollback; held has bit i set when set i may hold
	// blocks installed before the current checkpoint.
	dirty []uint64
	held  []uint64
	clock uint64
	size  int

	// logging is on from Checkpoint to the next Reset. undoSets lists the
	// sets saved since the checkpoint, with their ways in undoWays (Ways
	// per set, in order); ckClock and ckSize are the checkpoint's clock
	// and size.
	logging  bool
	undoSets []int
	undoWays []way
	ckClock  uint64
	ckSize   int
}

// New builds an array for the configuration.
func New(cfg Config) *Array {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	words := (cfg.Sets + 63) / 64
	return &Array{
		cfg:   cfg,
		sets:  make([][]way, cfg.Sets),
		dirty: make([]uint64, words),
		held:  make([]uint64, words),
	}
}

// Config returns the array geometry.
func (a *Array) Config() Config { return a.cfg }

// Reset empties the array without releasing its storage: already
// materialized sets are zeroed in place rather than dropped, so a reused
// array skips both the top-level table allocation and the per-set
// materialization cost for sets the previous run touched. Only sets marked
// dirty or held are visited; every other set is still zero from the Reset
// before, or was never materialized, since every change to a set marks it.
// Behaviour after Reset is indistinguishable from a fresh array (a zeroed
// way is invalid, exactly like a way in a never-materialized set). Reset
// ends any checkpoint.
func (a *Array) Reset() {
	for wi, w := range a.dirty {
		w |= a.held[wi]
		for w != 0 {
			clear(a.sets[wi*64+bits.TrailingZeros64(w)])
			w &= w - 1
		}
		a.dirty[wi] = 0
		a.held[wi] = 0
	}
	a.clock = 0
	a.size = 0
	a.logging = false
	a.undoSets = a.undoSets[:0]
	a.undoWays = a.undoWays[:0]
}

// Checkpoint makes the array's current contents, clock and size the state
// Rollback returns to.
func (a *Array) Checkpoint() {
	for wi, w := range a.dirty {
		a.held[wi] |= w
		a.dirty[wi] = 0
	}
	a.ckClock = a.clock
	a.ckSize = a.size
	a.logging = true
	a.undoSets = a.undoSets[:0]
	a.undoWays = a.undoWays[:0]
}

// Rollback returns the array to its state at the last Checkpoint by
// copying back the ways of every set changed since, and keeps the
// checkpoint. It must follow a Checkpoint with no Reset in between.
func (a *Array) Rollback() {
	ways := a.cfg.Ways
	for k, i := range a.undoSets {
		copy(a.sets[i], a.undoWays[k*ways:(k+1)*ways])
		a.dirty[i/64] &^= 1 << (i % 64)
	}
	a.undoSets = a.undoSets[:0]
	a.undoWays = a.undoWays[:0]
	a.clock = a.ckClock
	a.size = a.ckSize
}

// Len returns the number of resident blocks.
func (a *Array) Len() int { return a.size }

// index returns addr's set number.
func (a *Array) index(addr Addr) int { return int(addr % Addr(a.cfg.Sets)) }

// change marks set i changed; on the set's first change since the
// checkpoint it saves the set's ways first.
func (a *Array) change(i int) {
	if a.dirty[i/64]&(1<<(i%64)) == 0 {
		a.firstChange(i)
	}
}

func (a *Array) firstChange(i int) {
	a.dirty[i/64] |= 1 << (i % 64)
	if a.logging {
		n := len(a.undoWays)
		a.undoWays = slices.Grow(a.undoWays, a.cfg.Ways)[:n+a.cfg.Ways]
		if saved := a.undoWays[n:]; copy(saved, a.sets[i]) == 0 {
			clear(saved) // a nil set saves as empty ways
		}
		a.undoSets = append(a.undoSets, i)
	}
}

// Contains reports whether the block is resident, without touching LRU state.
func (a *Array) Contains(addr Addr) bool {
	s := a.sets[a.index(addr)]
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
	si := a.index(addr)
	s := a.sets[si]
	for i := range s {
		if s[i].valid && s[i].addr == addr {
			a.change(si)
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
	si := a.index(addr)
	a.change(si)
	s := a.sets[si]
	if s == nil {
		s = make([]way, a.cfg.Ways)
		a.sets[si] = s
	}
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
	si := a.index(addr)
	s := a.sets[si]
	for i := range s {
		if s[i].valid && s[i].addr == addr {
			a.change(si)
			s[i].valid = false
			a.size--
			return true
		}
	}
	return false
}

// Snapshot renders the array's clock, size and every non-zero way with its
// set and way position, for tests that compare two arrays' states. A
// never-materialized set renders like a zeroed one.
func (a *Array) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock %d size %d\n", a.clock, a.size)
	for si, s := range a.sets {
		for wi, w := range s {
			if w != (way{}) {
				fmt.Fprintf(&b, "set %d way %d: addr %d valid %t lru %d\n", si, wi, w.addr, w.valid, w.lru)
			}
		}
	}
	return b.String()
}
