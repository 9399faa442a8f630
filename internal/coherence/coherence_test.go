package coherence

import (
	"testing"

	"repro/internal/network"
	"repro/internal/stats"
)

func TestKindSizes(t *testing.T) {
	for k := GetS; k < NumKinds; k++ {
		want := ControlBytes
		if k == Data || k == DataWB {
			want = DataBytes
		}
		if k.Size() != want {
			t.Errorf("%s size = %d, want %d", k, k.Size(), want)
		}
	}
}

func TestStateClassification(t *testing.T) {
	owners := map[State]bool{
		Modified: true, Owned: true, OM_A: true, OM_P: true, MI_A: true, OI_A: true,
	}
	valid := map[State]bool{
		Shared: true, Owned: true, Modified: true, SM_A: true, SM_P: true,
		OM_A: true, OM_P: true, MI_A: true, OI_A: true,
	}
	for s := Invalid; s < numStates; s++ {
		if s.IsOwnerState() != owners[s] {
			t.Errorf("%s IsOwnerState = %v", s, s.IsOwnerState())
		}
		if s.HasValidData() != valid[s] {
			t.Errorf("%s HasValidData = %v", s, s.HasValidData())
		}
		if s.IsStable() != (s <= Modified) {
			t.Errorf("%s IsStable = %v", s, s.IsStable())
		}
	}
}

func TestTableCounting(t *testing.T) {
	tbl := NewTable("x")
	tbl.Declare(Invalid, EvLoad)
	tbl.Declare(Invalid, EvStore)
	tbl.Declare(Shared, EvLoad)
	if tbl.States() != 2 || tbl.Events() != 2 || tbl.Transitions() != 3 {
		t.Fatalf("counts = %d/%d/%d", tbl.States(), tbl.Events(), tbl.Transitions())
	}
	tbl.Fire(Invalid, EvLoad)
	fired, declared := tbl.Coverage()
	if fired != 1 || declared != 3 {
		t.Fatalf("coverage = %d/%d", fired, declared)
	}
	if got := len(tbl.Uncovered()); got != 2 {
		t.Fatalf("uncovered = %d", got)
	}
}

func TestTableIllegalTransitionPanics(t *testing.T) {
	tbl := NewTable("x")
	tbl.Declare(Invalid, EvLoad)
	defer func() {
		if recover() == nil {
			t.Error("undeclared transition did not panic")
		}
	}()
	tbl.Fire(Modified, EvData)
}

func TestComplexityRow(t *testing.T) {
	c := NewTable("cache")
	c.Declare(Invalid, EvLoad)
	c.Declare(Shared, EvLoad)
	m := NewTable("mem")
	m.Declare(MemOwner, EvMemGetS)
	row := Complexity("P", c, m)
	if row.TotalStates != 3 || row.TotalEvents != 2 || row.TotalTransitions != 3 {
		t.Fatalf("row = %+v", row)
	}
	if row.CacheTransitions != 2 || row.MemTransitions != 1 {
		t.Fatalf("row = %+v", row)
	}
}

func TestDirEntryLifecycle(t *testing.T) {
	d := newDirState(NewRecycler())
	e := d.entry(7)
	if e.state != MemOwner || e.ownerOf() != MemoryOwner {
		t.Fatal("default entry not memory-owned")
	}
	e.setCacheOwner(3)
	if e.ownerOf() != 3 || !e.sharers.IsEmpty() {
		t.Fatal("setCacheOwner broken")
	}
	e.addSharer(5)
	e.acceptWB(3)
	if e.state != MemWB || e.ownerOf() != MemoryOwner {
		t.Fatal("acceptWB broken")
	}
	if !e.sharers.Has(5) {
		t.Fatal("writeback must preserve sharers (S copies survive)")
	}
	e.completeWB(99)
	if e.state != MemOwner || e.value != 99 {
		t.Fatal("completeWB broken")
	}
	if v, memOwner := d.homeValue(7); v != 99 || !memOwner {
		t.Fatalf("homeValue = %v/%v", v, memOwner)
	}
	if v, memOwner := d.homeValue(1234); v != 0 || !memOwner {
		t.Fatalf("homeValue of untouched block = %v/%v", v, memOwner)
	}
}

func TestCheckerValueChain(t *testing.T) {
	c := NewChecker()
	c.Panic = false
	c.WriteCommit(1, 10, 100, 0xA, 0)   // first write observes initial 0
	c.ReadCommit(2, 10, 150, 0xA)       // read after the write sees it
	c.WriteCommit(3, 10, 200, 0xB, 0xA) // second write observes the first
	c.ReadCommit(4, 10, 180, 0xA)       // read ordered between the writes
	c.WBCommit(0, 10, 250, 0xB)         // writeback carries the latest
	if len(c.Violations) != 0 {
		t.Fatalf("false positives: %v", c.Violations)
	}
	c.ReadCommit(5, 10, 300, 0xA) // stale read after the second write
	if len(c.Violations) != 1 {
		t.Fatalf("stale read not caught: %v", c.Violations)
	}
	c.WriteCommit(6, 10, 190, 0xC, 0xB) // out-of-order commit
	if len(c.Violations) < 2 {
		t.Fatal("out-of-order write commit not caught")
	}
}

func TestCheckerSWMR(t *testing.T) {
	c := NewChecker()
	c.Panic = false
	c.Register(fakeCache{st: Modified})
	c.Register(fakeCache{st: Modified})
	c.WriteCommit(0, 1, 10, 0x1, 0)
	if len(c.Violations) == 0 {
		t.Fatal("two Modified copies not caught")
	}
}

type fakeCache struct{ st State }

func (f fakeCache) Access(Op, func())                  {}
func (f fakeCache) OnOrdered(*network.Message)         {}
func (f fakeCache) OnUnordered(*Packet)                {}
func (f fakeCache) Stats() *CacheStats                 { return &CacheStats{} }
func (f fakeCache) StateOf(Addr) State                 { return f.st }
func (f fakeCache) ValueOf(Addr) uint64                { return 0 }
func (f fakeCache) Table() *Table                      { return NewTable("fake") }
func (f fakeCache) Preheat(Addr, State, uint64)        {}
func (f fakeCache) LatencyHistogram() *stats.Histogram { return stats.NewLatencyHistogram() }
func (f fakeCache) Reset()                             {}
func (f fakeCache) Checkpoint()                        {}
func (f fakeCache) Rollback() bool                     { return false }
