package coherence

import (
	"math/bits"
	"slices"
)

// blockTable is an open-addressed Addr → *T table for the per-block records
// the controllers look up on every message: a cache controller's line
// records and a home's directory entries. Every broadcast is snooped by
// every node, and most nodes hold no record for the block, so the dominant
// operation is a negative lookup; the table keeps those near one probe.
//
//   - Fibonacci hashing spreads the dense block numbers of a working set
//     across the slots, and linear probing resolves collisions.
//   - The load factor stays at or below 1/2, so probe chains are short.
//   - Deletion shifts later chain members back into the hole, so the table
//     never holds tombstones and a miss ends at the first empty slot.
//   - clear empties the table and keeps its capacity for the next run.
//
// After checkpoint the table also keeps an undo log, from which its owner
// restores the checkpoint state in time proportional to the keys the run
// touched rather than to the table's size:
//
//   - put of an absent key logs the key in added;
//   - the owner saves a record's checkpoint value (save) the first time a
//     lookup hits it, and marks the record so repeat hits do not log again;
//   - the owner rolls back by deleting every added key, then restoring
//     every saved value. A key absent at the checkpoint is only ever
//     added (once per re-creation), and a key present at it is saved once,
//     before its first change, so the order within each pass is free.
//
// The log is bounded: past maxAdded added keys (records are deleted and
// re-created as blocks come and go, each re-creation logging its key
// again) the table stops logging and its owner must clear it instead of
// rolling back.
//
// The zero value is an empty table. Values must be non-nil, and the
// all-ones address cannot be stored.
type blockTable[T any] struct {
	// tags[i] is the address in slot i plus one, or 0 for an empty slot;
	// vals[i] is its value. A miss reads tags only.
	tags  []Addr
	vals  []*T
	n     int
	shift uint // 64 - log2(len(tags))

	// logging is set by checkpoint and cleared by clear or by an overflow
	// of added past maxAdded keys.
	logging  bool
	saved    []savedRecord[T]
	added    []Addr
	maxAdded int
}

// savedRecord is a record's value at the checkpoint.
type savedRecord[T any] struct {
	addr Addr
	val  T
}

// minAdded is the smallest bound on added keys; checkpoint raises it to a
// multiple of the records held at the checkpoint, past which clearing and
// re-installing costs less than replaying.
const minAdded = 1024

// minBlockSlots is the smallest slot array a table allocates.
const minBlockSlots = 16

// init sizes an empty table to hold hint entries without growing.
func (t *blockTable[T]) init(hint int) {
	size := minBlockSlots
	for size < 2*hint {
		size *= 2
	}
	t.alloc(size)
}

func (t *blockTable[T]) alloc(size int) {
	t.tags = make([]Addr, size)
	t.vals = make([]*T, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
}

// home is the slot addr's probe chain starts at.
func (t *blockTable[T]) home(addr Addr) int {
	return int((uint64(addr) * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the value stored for addr, or nil.
func (t *blockTable[T]) get(addr Addr) *T {
	if t.n == 0 {
		return nil
	}
	mask := len(t.tags) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		switch t.tags[i] {
		case addr + 1:
			return t.vals[i]
		case 0:
			return nil
		}
	}
}

// put stores v (non-nil) for addr, replacing any previous value. While
// logging, a put of an absent key logs it as added; replacing a present
// key's record is not logged.
func (t *blockTable[T]) put(addr Addr, v *T) {
	if t.insert(addr, v) && t.logging {
		if len(t.added) == t.maxAdded {
			t.stopLogging()
			return
		}
		t.added = append(t.added, addr)
	}
}

// insert stores v for addr and reports whether addr was absent.
func (t *blockTable[T]) insert(addr Addr, v *T) bool {
	if addr+1 == 0 {
		panic("coherence: block table cannot hold the all-ones address")
	}
	if 2*(t.n+1) > len(t.tags) {
		t.grow()
	}
	mask := len(t.tags) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		switch t.tags[i] {
		case 0:
			t.tags[i] = addr + 1
			t.vals[i] = v
			t.n++
			return true
		case addr + 1:
			t.vals[i] = v
			return false
		}
	}
}

// grow doubles the slot arrays and reinserts every entry.
func (t *blockTable[T]) grow() {
	tags, vals := t.tags, t.vals
	t.alloc(max(minBlockSlots, 2*len(tags)))
	for i, tag := range tags {
		if tag != 0 {
			t.insert(tag-1, vals[i])
		}
	}
}

// del removes addr's entry, if any, and closes the hole it leaves: each
// later member of the cluster whose home lies cyclically outside
// (hole, member] moves back into the hole, and the hole moves to the
// member's old slot. The cluster ends at the first empty slot.
func (t *blockTable[T]) del(addr Addr) {
	if t.n == 0 {
		return
	}
	mask := len(t.tags) - 1
	hole := t.home(addr)
	for t.tags[hole] != addr+1 {
		if t.tags[hole] == 0 {
			return
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.tags[j] != 0; j = (j + 1) & mask {
		// hole lies on j's probe chain iff j is at least as far from its
		// home as from hole.
		if (j-t.home(t.tags[j]-1))&mask >= (j-hole)&mask {
			t.tags[hole], t.vals[hole] = t.tags[j], t.vals[j]
			hole = j
		}
	}
	t.tags[hole], t.vals[hole] = 0, nil
	t.n--
}

// clear removes every entry, stops logging and keeps the slot arrays.
func (t *blockTable[T]) clear() {
	if t.n > 0 {
		clear(t.tags)
		clear(t.vals)
		t.n = 0
	}
	t.stopLogging()
}

func (t *blockTable[T]) stopLogging() {
	t.logging = false
	t.saved = t.saved[:0]
	t.added = t.added[:0]
}

// checkpoint starts logging: the entries as they stand become the state
// the owner's rollback restores. The owner's records must all be unmarked.
func (t *blockTable[T]) checkpoint() {
	t.logging = true
	t.saved = t.saved[:0]
	t.added = t.added[:0]
	t.maxAdded = max(minAdded, 4*t.n)
}

// save logs v as addr's checkpoint value. The owner calls it on the first
// lookup hit of a record since the checkpoint, before changing it.
func (t *blockTable[T]) save(addr Addr, v *T) {
	t.saved = append(t.saved, savedRecord[T]{addr: addr})
	t.saved[len(t.saved)-1].val = *v
}

// rewind hands the owner the undo log for its rollback and suspends
// logging while it replays; the owner calls checkpoint afterwards. It
// reports false when the table is not logging, in which case the owner
// must clear instead.
func (t *blockTable[T]) rewind() (added []Addr, saved []savedRecord[T], ok bool) {
	if !t.logging {
		return nil, nil, false
	}
	t.logging = false
	return t.added, t.saved, true
}

// sortedKeys returns the table's addresses in increasing order (snapshots).
func sortedKeys[T any](t *blockTable[T]) []Addr {
	keys := make([]Addr, 0, t.n)
	for _, tag := range t.tags {
		if tag != 0 {
			keys = append(keys, tag-1)
		}
	}
	slices.Sort(keys)
	return keys
}
