package coherence

import (
	"testing"

	"repro/internal/sim"
)

// checkTable verifies that t holds exactly the entries of want, that every
// entry sits on its own probe chain with no empty slot between its home and
// itself (the invariant backward-shift deletion must keep), and that the
// load factor is at most 1/2.
func checkTable(t *testing.T, tbl *blockTable[int], want map[Addr]*int) {
	t.Helper()
	if tbl.n != len(want) {
		t.Fatalf("count %d, want %d", tbl.n, len(want))
	}
	if 2*tbl.n > len(tbl.tags) {
		t.Fatalf("%d entries in %d slots: load factor above 1/2", tbl.n, len(tbl.tags))
	}
	for a, v := range want {
		if got := tbl.get(a); got != v {
			t.Fatalf("get(%d) = %p, want %p", a, got, v)
		}
	}
	mask := len(tbl.tags) - 1
	live := 0
	for i, tag := range tbl.tags {
		if tag == 0 {
			if tbl.vals[i] != nil {
				t.Fatalf("empty slot %d holds a value", i)
			}
			continue
		}
		live++
		if want[tag-1] == nil {
			t.Fatalf("slot %d holds deleted address %d", i, tag-1)
		}
		for j := tbl.home(tag - 1); j != i; j = (j + 1) & mask {
			if tbl.tags[j] == 0 {
				t.Fatalf("address %d in slot %d is cut off from its home by empty slot %d", tag-1, i, j)
			}
		}
	}
	if live != len(want) {
		t.Fatalf("%d occupied slots, want %d", live, len(want))
	}
}

// wrapKeys returns n addresses whose home slot in a table of size slots is
// one of its last two, so their probe chains run past the end of the slot
// array and wrap to its start.
func wrapKeys(slots, n int) []Addr {
	probe := blockTable[int]{}
	probe.init(slots / 2)
	if len(probe.tags) != slots {
		panic("wrapKeys: unexpected table size")
	}
	var keys []Addr
	for a := Addr(0); len(keys) < n; a++ {
		if probe.home(a) >= slots-2 {
			keys = append(keys, a)
		}
	}
	return keys
}

// TestBlockTableMatchesMap drives random get/put/del sequences against a Go
// map. Half the addresses hash to the last two slots of the initial table,
// so probe chains wrap past the end of the slot array and deletions shift
// entries back across the wrap; the rest are spread widely and make the
// table grow. Each round ends with a clear, and the next round reuses the
// table at the capacity it grew to.
func TestBlockTableMatchesMap(t *testing.T) {
	const slots = 16
	wrap := wrapKeys(slots, 6)
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		var tbl blockTable[int]
		tbl.init(slots / 2)
		for round := 0; round < 4; round++ {
			want := map[Addr]*int{}
			// Round 0 stays within the initial capacity (at most six wrap
			// keys plus two others), so its wraps are not undone by growth.
			wide := 2
			if round > 0 {
				wide = 200
			}
			key := func() Addr {
				if rng.Intn(2) == 0 {
					return wrap[rng.Intn(len(wrap))]
				}
				return Addr(1000 + rng.Intn(wide))
			}
			for op := 0; op < 2000; op++ {
				a := key()
				switch rng.Intn(3) {
				case 0:
					v := new(int)
					tbl.put(a, v)
					want[a] = v
				case 1:
					tbl.del(a)
					delete(want, a)
				default:
					if got := tbl.get(a); got != want[a] {
						t.Fatalf("seed %d round %d op %d: get(%d) = %p, want %p", seed, round, op, a, got, want[a])
					}
				}
				checkTable(t, &tbl, want)
			}
			size := len(tbl.tags)
			tbl.clear()
			checkTable(t, &tbl, map[Addr]*int{})
			if len(tbl.tags) != size {
				t.Fatalf("clear changed the capacity from %d to %d slots", size, len(tbl.tags))
			}
		}
	}
}

// TestBlockTableWrapShift pins the wrapped backward shift directly: three
// addresses homed at the last slot fill it and the first two slots;
// deleting the first pulls the other two back across the end of the array.
func TestBlockTableWrapShift(t *testing.T) {
	const slots = 16
	var tbl blockTable[int]
	tbl.init(slots / 2)
	var keys []Addr
	for a := Addr(0); len(keys) < 3; a++ {
		if tbl.home(a) == slots-1 {
			keys = append(keys, a)
		}
	}
	want := map[Addr]*int{}
	for _, a := range keys {
		v := new(int)
		tbl.put(a, v)
		want[a] = v
	}
	if tbl.tags[slots-1] != keys[0]+1 || tbl.tags[0] != keys[1]+1 || tbl.tags[1] != keys[2]+1 {
		t.Fatalf("chain does not wrap: tags %v", tbl.tags)
	}
	tbl.del(keys[0])
	delete(want, keys[0])
	checkTable(t, &tbl, want)
	if tbl.tags[slots-1] != keys[1]+1 || tbl.tags[0] != keys[2]+1 || tbl.tags[1] != 0 {
		t.Fatalf("delete did not shift back across the wrap: tags %v", tbl.tags)
	}
}

// TestBlockTableUndoLog: after checkpoint a put of an absent key is logged
// once per put, a put replacing a present key is not, and the table stops
// logging, so that rewind refuses, once more keys were added than the
// bound allows.
func TestBlockTableUndoLog(t *testing.T) {
	var tbl blockTable[int]
	v := 1
	for a := Addr(0); a < 300; a++ {
		tbl.put(a, &v)
	}
	tbl.checkpoint()
	tbl.put(7, &v) // present: not logged
	tbl.put(1000, &v)
	tbl.del(1000)
	tbl.put(1000, &v)
	tbl.save(8, tbl.get(8))
	added, saved, ok := tbl.rewind()
	if !ok || len(added) != 2 || added[0] != 1000 || added[1] != 1000 || len(saved) != 1 || saved[0].addr != 8 {
		t.Fatalf("rewind = %v, %v, %t; want [1000 1000], one saved record for 8, true", added, saved, ok)
	}

	tbl.checkpoint()
	bound := max(minAdded, 4*tbl.n)
	puts := 0
	for a := Addr(2000); tbl.logging; a++ {
		tbl.put(a, &v)
		puts++
	}
	if puts != bound+1 {
		t.Fatalf("logging stopped after %d added keys, want %d", puts-1, bound)
	}
	if _, _, ok := tbl.rewind(); ok {
		t.Fatal("rewind accepted an overflowed log")
	}
}
