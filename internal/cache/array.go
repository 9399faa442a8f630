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
	"math"
	"math/bits"
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

// way is one way of a set: tag is the resident block's address plus one,
// or 0 for an invalid way, and lru is its use stamp (larger = more
// recently used). Sixteen bytes, so a 4-way set fills one 64-byte line.
type way struct {
	tag Addr
	lru uint64
}

// Array is a set-associative residency map. The zero value is unusable; use
// New.
//
// Sets materialize lazily on first insert: a short sweep cell touches a
// small fraction of the paper's 16384 sets, so eagerly zeroing them all
// dominated the per-run setup cost of fleet-style experiment sweeps. The
// materialized sets are packed, in first-touch order, into one
// pointer-free way store that grows by doubling; per set the array keeps
// only a 4-byte offset into it. A node at the paper's geometry therefore
// holds 64 KB of offsets plus 64 bytes per touched set, none of which the
// garbage collector scans. For the same reason as lazy materialization,
// Reset clears only the sets changed since the previous Reset, found
// through one-bit-per-set maps, instead of walking all of them.
//
// Checkpoint and Rollback go one step further for runs that start from the
// same installed state: after Checkpoint the array saves each set's ways
// before its first Insert, Touch or Remove, and Rollback copies the saved
// ways back, so returning to the checkpoint costs the sets the run
// touched.
type Array struct {
	cfg Config
	// off[i] is 1 + set i's index in ways (whose ways are
	// ways[k*Ways:(k+1)*Ways] for index k), or 0 while set i has never
	// been materialized.
	off  []int32
	ways []way
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

// minStoreSets is the number of sets the way store first allocates room
// for.
const minStoreSets = 64

// New builds an array for the configuration.
func New(cfg Config) *Array {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.Sets > math.MaxInt32 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	words := (cfg.Sets + 63) / 64
	return &Array{
		cfg:   cfg,
		off:   make([]int32, cfg.Sets),
		dirty: make([]uint64, words),
		held:  make([]uint64, words),
	}
}

// Config returns the array geometry.
func (a *Array) Config() Config { return a.cfg }

// Reset empties the array without releasing its storage: already
// materialized sets are zeroed in place rather than dropped, so a reused
// array skips both the table allocations and the materialization cost for
// sets the previous run touched. Only sets marked dirty or held are
// visited; every other set is still zero from the Reset before, or was
// never materialized, since every change to a set marks it. Behaviour
// after Reset is indistinguishable from a fresh array (a zeroed way is
// invalid, exactly like a way in a never-materialized set). Reset ends any
// checkpoint.
func (a *Array) Reset() {
	for wi, w := range a.dirty {
		w |= a.held[wi]
		for w != 0 {
			clear(a.set(wi*64 + bits.TrailingZeros64(w)))
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
		copy(a.set(i), a.undoWays[k*ways:(k+1)*ways])
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

// set returns set i's ways, or nil while it has never been materialized.
func (a *Array) set(i int) []way {
	k := int(a.off[i]-1) * a.cfg.Ways
	if k < 0 {
		return nil
	}
	return a.ways[k : k+a.cfg.Ways : k+a.cfg.Ways]
}

// materialize appends zeroed ways for set i to the store, doubling the
// store when it is full. Ways past the store's length are always zero:
// the store never shrinks.
func (a *Array) materialize(i int) {
	n := len(a.ways)
	if n+a.cfg.Ways > cap(a.ways) {
		grown := make([]way, n, max(2*cap(a.ways), minStoreSets*a.cfg.Ways))
		copy(grown, a.ways)
		a.ways = grown
	}
	a.ways = a.ways[:n+a.cfg.Ways]
	a.off[i] = int32(n/a.cfg.Ways) + 1
}

// find returns the index in s of the way holding addr, or -1. The
// all-ones address is never resident: its tag would be 0.
func find(s []way, addr Addr) int {
	if tag := addr + 1; tag != 0 {
		for i := range s {
			if s[i].tag == tag {
				return i
			}
		}
	}
	return -1
}

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
		a.undoWays = append(a.undoWays, a.set(i)...)
		a.undoSets = append(a.undoSets, i)
	}
}

// Contains reports whether the block is resident, without touching LRU state.
func (a *Array) Contains(addr Addr) bool {
	return find(a.set(a.index(addr)), addr) >= 0
}

// Touch marks the block most recently used and reports whether it was
// resident.
func (a *Array) Touch(addr Addr) bool {
	si := a.index(addr)
	s := a.set(si)
	i := find(s, addr)
	if i < 0 {
		return false
	}
	a.change(si)
	a.clock++
	s[i].lru = a.clock
	return true
}

// Insert makes the block resident, evicting the least recently used
// non-pinned way if the set is full. pinned may be nil. It returns the
// evicted block address and whether an eviction happened. Inserting a block
// that is already resident only touches it. If every way in the set is
// pinned, Insert reports failure with ok=false and does not insert. The
// all-ones address cannot be inserted; Insert panics on it.
func (a *Array) Insert(addr Addr, pinned func(Addr) bool) (victim Addr, evicted, ok bool) {
	tag := addr + 1
	if tag == 0 {
		panic("cache: the all-ones address cannot be inserted")
	}
	si := a.index(addr)
	if a.off[si] == 0 {
		a.materialize(si)
	}
	a.change(si)
	s := a.set(si)
	a.clock++
	// Already resident?
	for i := range s {
		if s[i].tag == tag {
			s[i].lru = a.clock
			return 0, false, true
		}
	}
	// Free way?
	for i := range s {
		if s[i].tag == 0 {
			s[i] = way{tag: tag, lru: a.clock}
			a.size++
			return 0, false, true
		}
	}
	// Evict LRU among non-pinned ways.
	vi := -1
	for i := range s {
		if pinned != nil && pinned(s[i].tag-1) {
			continue
		}
		if vi == -1 || s[i].lru < s[vi].lru {
			vi = i
		}
	}
	if vi == -1 {
		return 0, false, false
	}
	victim = s[vi].tag - 1
	s[vi] = way{tag: tag, lru: a.clock}
	return victim, true, true
}

// Remove makes the block non-resident (silent drop or invalidation) and
// reports whether it was resident. The way is zeroed, like a way that was
// never used.
func (a *Array) Remove(addr Addr) bool {
	si := a.index(addr)
	s := a.set(si)
	i := find(s, addr)
	if i < 0 {
		return false
	}
	a.change(si)
	s[i] = way{}
	a.size--
	return true
}

// Snapshot renders the array's clock, size and every valid way with its
// set and way position, for tests that compare two arrays' states. A
// never-materialized set renders like a zeroed one.
func (a *Array) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock %d size %d\n", a.clock, a.size)
	for si := range a.off {
		for wi, w := range a.set(si) {
			if w.tag != 0 {
				fmt.Fprintf(&b, "set %d way %d: addr %d lru %d\n", si, wi, w.tag-1, w.lru)
			}
		}
	}
	return b.String()
}
