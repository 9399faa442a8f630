package cache

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestInsertAndContains(t *testing.T) {
	a := New(Config{Sets: 4, Ways: 2})
	if a.Contains(5) {
		t.Fatal("empty array contains block")
	}
	if _, ev, ok := a.Insert(5, nil); ev || !ok {
		t.Fatal("first insert evicted or failed")
	}
	if !a.Contains(5) {
		t.Fatal("inserted block not resident")
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	a := New(Config{Sets: 1, Ways: 2})
	a.Insert(1, nil)
	a.Insert(2, nil)
	a.Touch(1) // 2 becomes LRU
	victim, ev, ok := a.Insert(3, nil)
	if !ok || !ev || victim != 2 {
		t.Fatalf("victim = %d (evicted=%v), want 2", victim, ev)
	}
	if a.Contains(2) || !a.Contains(1) || !a.Contains(3) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestInsertExistingTouches(t *testing.T) {
	a := New(Config{Sets: 1, Ways: 2})
	a.Insert(1, nil)
	a.Insert(2, nil)
	// Reinserting 1 must touch it, making 2 the victim.
	if _, ev, _ := a.Insert(1, nil); ev {
		t.Fatal("reinsert evicted")
	}
	victim, _, _ := a.Insert(3, nil)
	if victim != 2 {
		t.Fatalf("victim = %d, want 2", victim)
	}
}

func TestPinnedBlocksSurvive(t *testing.T) {
	a := New(Config{Sets: 1, Ways: 2})
	a.Insert(1, nil)
	a.Insert(2, nil)
	pinned := func(x Addr) bool { return x == 2 } // 2 is in flight
	victim, ev, ok := a.Insert(3, pinned)
	if !ok || !ev || victim != 1 {
		t.Fatalf("victim = %d, want 1 (2 pinned)", victim)
	}
	// All pinned: insert must fail.
	a2 := New(Config{Sets: 1, Ways: 1})
	a2.Insert(9, nil)
	if _, _, ok := a2.Insert(10, func(Addr) bool { return true }); ok {
		t.Fatal("insert succeeded with every way pinned")
	}
}

// TestInsertAllOnesPanics: the all-ones address has no tag (address plus
// one would be 0, the invalid way), so Insert refuses it loudly and the
// lookups report it absent.
func TestInsertAllOnesPanics(t *testing.T) {
	a := New(Config{Sets: 4, Ways: 2})
	a.Insert(3, nil)
	a.Remove(3) // leaves an invalid way in the all-ones address's set
	allOnes := ^Addr(0)
	if a.Contains(allOnes) || a.Touch(allOnes) || a.Remove(allOnes) {
		t.Fatal("all-ones address reported resident")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of the all-ones address did not panic")
		}
	}()
	a.Insert(allOnes, nil)
}

// TestWayStorePacking: sets materialize into the way store in first-touch
// order, the store keeps them across growth, and a 4-way set is one
// 64-byte line.
func TestWayStorePacking(t *testing.T) {
	if size := unsafe.Sizeof(way{}); size != 16 {
		t.Fatalf("way is %d bytes, want 16", size)
	}
	cfg := Config{Sets: 1024, Ways: 4}
	a := New(cfg)
	order := []Addr{700, 3, 1023, 512}
	for k := range 3 * minStoreSets { // past two doublings of the store
		order = append(order, Addr(100+k))
	}
	for _, addr := range order {
		a.Insert(addr, nil)
	}
	if got, want := len(a.ways), len(order)*cfg.Ways; got != want {
		t.Fatalf("store holds %d ways, want %d", got, want)
	}
	for k, addr := range order {
		if got := a.off[a.index(addr)]; got != int32(k+1) {
			t.Fatalf("set of %d at store index %d, want %d", addr, got-1, k)
		}
		if !a.Contains(addr) {
			t.Fatalf("block %d lost when the store grew", addr)
		}
	}
	if a.off[1] != 0 {
		t.Fatal("an untouched set was materialized")
	}
}

func TestRemove(t *testing.T) {
	a := New(Config{Sets: 2, Ways: 1})
	a.Insert(4, nil)
	if !a.Remove(4) {
		t.Fatal("remove failed")
	}
	if a.Remove(4) {
		t.Fatal("double remove succeeded")
	}
	if a.Len() != 0 {
		t.Fatalf("Len = %d", a.Len())
	}
}

// TestCapacityInvariant: residency never exceeds capacity and a block maps
// to exactly one set, under arbitrary insert/remove sequences.
func TestCapacityInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := Config{Sets: 8, Ways: 2}
		a := New(cfg)
		resident := map[Addr]bool{}
		for _, op := range ops {
			addr := Addr(op % 64)
			if op&0x8000 != 0 {
				if a.Remove(addr) != resident[addr] {
					return false
				}
				delete(resident, addr)
				continue
			}
			victim, ev, ok := a.Insert(addr, nil)
			if !ok {
				return false
			}
			if ev {
				if !resident[victim] {
					return false // evicted a non-resident block
				}
				if victim%Addr(cfg.Sets) != addr%Addr(cfg.Sets) {
					return false // victim from the wrong set
				}
				delete(resident, victim)
			}
			resident[addr] = true
			if a.Len() != len(resident) || a.Len() > cfg.Lines() {
				return false
			}
		}
		for b := range resident {
			if !a.Contains(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	// 4 MB / 64 B blocks / 4 ways = 16384 sets.
	c := DefaultConfig()
	if c.Lines()*64 != 4<<20 {
		t.Fatalf("default capacity = %d bytes, want 4 MiB", c.Lines()*64)
	}
}

// TestResetMatchesFresh: an array reused across runs through Reset answers
// every operation exactly as a freshly built one does, and Reset leaves no
// way valid and no set marked dirty. Sets are not a multiple of 64, so the
// dirty map's last word is partial.
func TestResetMatchesFresh(t *testing.T) {
	cfg := Config{Sets: 100, Ways: 2}
	pinOdd := func(a Addr) bool { return a%7 == 1 }
	replay := func(a *Array, ops []uint16) []uint64 {
		var out []uint64
		for _, op := range ops {
			addr := Addr(op % 512)
			switch op >> 14 {
			case 0:
				victim, ev, ok := a.Insert(addr, pinOdd)
				out = append(out, uint64(victim), b2u(ev), b2u(ok))
			case 1:
				out = append(out, b2u(a.Touch(addr)))
			case 2:
				out = append(out, b2u(a.Remove(addr)))
			default:
				out = append(out, b2u(a.Contains(addr)))
			}
			out = append(out, uint64(a.Len()))
		}
		return out
	}
	reused := New(cfg)
	f := func(first, second []uint16) bool {
		replay(reused, first)
		reused.Reset()
		for i, w := range reused.ways {
			if w != (way{}) {
				t.Logf("store slot %d (way %d of its set) not cleared: %+v", i, i%cfg.Ways, w)
				return false
			}
		}
		for _, w := range reused.dirty {
			if w != 0 {
				return false
			}
		}
		got, want := replay(reused, second), replay(New(cfg), second)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		reused.Reset()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackMatchesCheckpoint: after Checkpoint, any sequence of inserts,
// touches and removes followed by Rollback leaves the array exactly as it
// was at the checkpoint (ways, LRU stamps, clock, size), it then behaves
// like a fresh array given the same installs, rolling back again works,
// and Reset still clears the sets installed before the checkpoint.
func TestRollbackMatchesCheckpoint(t *testing.T) {
	cfg := Config{Sets: 100, Ways: 2}
	pinOdd := func(a Addr) bool { return a%7 == 1 }
	replay := func(a *Array, ops []uint16) []uint64 {
		var out []uint64
		for _, op := range ops {
			addr := Addr(op % 512)
			switch op >> 14 {
			case 0:
				victim, ev, ok := a.Insert(addr, pinOdd)
				out = append(out, uint64(victim), b2u(ev), b2u(ok))
			case 1:
				out = append(out, b2u(a.Touch(addr)))
			case 2:
				out = append(out, b2u(a.Remove(addr)))
			default:
				out = append(out, b2u(a.Contains(addr)))
			}
			out = append(out, uint64(a.Len()))
		}
		return out
	}
	reused := New(cfg)
	f := func(install, first, second []uint16) bool {
		reused.Reset()
		replay(reused, install)
		want := reused.Snapshot()
		reused.Checkpoint()
		replay(reused, first)
		reused.Rollback()
		if got := reused.Snapshot(); got != want {
			t.Logf("after rollback:\n%s\nwant:\n%s", got, want)
			return false
		}
		fresh := New(cfg)
		replay(fresh, install)
		if !slices.Equal(replay(reused, second), replay(fresh, second)) {
			return false
		}
		reused.Rollback()
		if reused.Snapshot() != want {
			return false
		}
		reused.Reset()
		return reused.Snapshot() == New(cfg).Snapshot()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
