package cellstore

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGCEvictsStaleAndAged: a GC pass removes foreign-format and corrupt
// entries, removes aged entries when maxAge is set, keeps everything else,
// and never touches the manifest.
func TestGCEvictsStaleAndAged(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Four healthy entries.
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := st.Put("key-"+k, cell(uint64(k[0]))); err != nil {
			t.Fatal(err)
		}
	}
	// One aged entry (35 days old), one corrupt, one foreign-format.
	old := time.Now().Add(-35 * 24 * time.Hour)
	if err := os.Chtimes(st.path("key-a"), old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("key-b"), []byte("not a cell entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("key-c"), foreignVersion(t, st, "key-c"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Abandoned temp litter (old) and a fresh temp file (kept: a writer
	// might still own it).
	oldTmp := filepath.Join(dir, "00", ".tmp-dead")
	os.MkdirAll(filepath.Dir(oldTmp), 0o755)
	os.WriteFile(oldTmp, []byte("x"), 0o644)
	os.Chtimes(oldTmp, old, old)
	freshTmp := filepath.Join(dir, "00", ".tmp-live")
	os.WriteFile(freshTmp, []byte("x"), 0o644)
	// A manifest, which GC must leave alone.
	m := LoadManifest(dir)
	m.Record("fig1", 1, 2, 3)
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}

	res, err := st.GC(30 * 24 * time.Hour)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if res.Kept != 1 {
		t.Errorf("Kept = %d, want 1 (only key-d survives)", res.Kept)
	}
	if res.RemovedStale != 2 || res.RemovedExpired != 1 || res.RemovedTemp != 1 {
		t.Errorf("Removed stale/expired/temp = %d/%d/%d, want 2/1/1",
			res.RemovedStale, res.RemovedExpired, res.RemovedTemp)
	}
	if res.Removed() != 4 {
		t.Errorf("Removed() = %d, want 4", res.Removed())
	}
	var v record
	if st.Get("key-a", &v) || st.Get("key-b", &v) || st.Get("key-c", &v) {
		t.Error("evicted entries still readable")
	}
	if !st.Get("key-d", &v) || v != cell('d') {
		t.Error("healthy entry lost")
	}
	if _, err := os.Stat(freshTmp); err != nil {
		t.Error("fresh temp file removed")
	}
	if got := LoadManifest(dir); got.Experiments["fig1"].Misses != 2 {
		t.Error("GC damaged the manifest")
	}
}

// TestGCZeroMaxAgeKeepsAnyAge: maxAge 0 evicts only unusable entries.
func TestGCZeroMaxAgeKeepsAnyAge(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if err := st.Put("ancient", cell(42)); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-10 * 365 * 24 * time.Hour)
	os.Chtimes(st.path("ancient"), old, old)
	res, err := st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 1 || res.Removed() != 0 {
		t.Errorf("GC(0) kept %d removed %d, want 1/0", res.Kept, res.Removed())
	}
}

// TestGCTempAgeClampedToMaxAge: under an aggressive maxAge, temp litter
// younger than the default one-hour grace period but older than maxAge is
// still evicted — crashed-writer droppings must not outlive the entries.
func TestGCTempAgeClampedToMaxAge(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if err := st.Put("live", cell(1)); err != nil {
		t.Fatal(err)
	}
	// A temp file 10 minutes old: younger than tempMaxAge (1h) but older
	// than the aggressive 5-minute maxAge below.
	tmp := filepath.Join(dir, "00", ".tmp-crashed")
	os.MkdirAll(filepath.Dir(tmp), 0o755)
	os.WriteFile(tmp, []byte("x"), 0o644)
	tenMin := time.Now().Add(-10 * time.Minute)
	os.Chtimes(tmp, tenMin, tenMin)

	res, err := st.GC(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedTemp != 1 {
		t.Errorf("RemovedTemp = %d, want 1 (temp age clamped to maxAge)", res.RemovedTemp)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("clamped temp file still present")
	}

	// Without a maxAge the default one-hour grace period still protects it.
	tmp2 := filepath.Join(dir, "00", ".tmp-young")
	os.WriteFile(tmp2, []byte("x"), 0o644)
	os.Chtimes(tmp2, tenMin, tenMin)
	res, err = st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedTemp != 0 {
		t.Errorf("GC(0) RemovedTemp = %d, want 0 (grace period applies)", res.RemovedTemp)
	}
}
