package coherence

import "math/bits"

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
// The zero value is an empty table. Values must be non-nil, and the
// all-ones address cannot be stored.
type blockTable[T any] struct {
	// tags[i] is the address in slot i plus one, or 0 for an empty slot;
	// vals[i] is its value. A miss reads tags only.
	tags  []Addr
	vals  []*T
	n     int
	shift uint // 64 - log2(len(tags))
}

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

// put stores v (non-nil) for addr, replacing any previous value.
func (t *blockTable[T]) put(addr Addr, v *T) {
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
			t.n++
			fallthrough
		case addr + 1:
			t.vals[i] = v
			return
		}
	}
}

// grow doubles the slot arrays and reinserts every entry.
func (t *blockTable[T]) grow() {
	tags, vals := t.tags, t.vals
	t.alloc(max(minBlockSlots, 2*len(tags)))
	for i, tag := range tags {
		if tag != 0 {
			t.put(tag-1, vals[i])
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

// clear removes every entry and keeps the slot arrays.
func (t *blockTable[T]) clear() {
	if t.n > 0 {
		clear(t.tags)
		clear(t.vals)
		t.n = 0
	}
}
