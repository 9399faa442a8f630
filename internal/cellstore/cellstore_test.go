package cellstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// record is the tests' stored value: a fixed 16-byte record that, like
// core.Metrics, refuses any other length. (The tests do not import core:
// fuzzing instruments every package the test binary links, and the
// simulator's coverage map would slow FuzzEntry twentyfold.)
type record struct{ A, B uint64 }

func (r record) AppendCell(dst []byte) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, r.A)
	return binary.LittleEndian.AppendUint64(dst, r.B), nil
}

func (r *record) DecodeCell(src []byte) error {
	if len(src) != 16 {
		return errors.New("record: wrong length")
	}
	*r = record{binary.LittleEndian.Uint64(src), binary.LittleEndian.Uint64(src[8:])}
	return nil
}

// cell returns a distinguishable record for test entries.
func cell(n uint64) record { return record{A: n, B: n + 1} }

func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := cell(7)
	var out record
	if st.Get("k1", &out) {
		t.Fatal("hit on empty store")
	}
	if err := st.Put("k1", in); err != nil {
		t.Fatal(err)
	}
	if !st.Get("k1", &out) {
		t.Fatal("miss after Put")
	}
	if out != in {
		t.Fatalf("round-trip mangled: %+v", out)
	}
	if st.Get("k2", &out) {
		t.Fatal("hit on absent key")
	}
	hits, misses, writes := st.Counters()
	if hits != 1 || misses != 2 || writes != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/2/1", hits, misses, writes)
	}
}

// corrupt locates the single stored file and rewrites it with content.
func corrupt(t *testing.T, dir string, content []byte) {
	t.Helper()
	var file string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			file = path
		}
		return err
	})
	if err != nil || file == "" {
		t.Fatalf("no stored file found: %v", err)
	}
	if err := os.WriteFile(file, content, 0o644); err != nil {
		t.Fatal(err)
	}
}

// foreignVersion returns key's entry in st rewritten with another format
// version byte.
func foreignVersion(t *testing.T, st *Store, key string) []byte {
	t.Helper()
	raw, err := os.ReadFile(st.path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(entryMagic)] = formatVersion + 1
	return raw
}

// TestCorruptAndStaleIgnored: garbage, a foreign format version, and a
// colliding key all read as misses, never as errors or wrong data.
func TestCorruptAndStaleIgnored(t *testing.T) {
	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := Open(dir)
		st.Put("k", cell(1))
		corrupt(t, dir, []byte("not a cell entry"))
		var out record
		if st.Get("k", &out) {
			t.Fatal("corrupt file read as a hit")
		}
	})
	t.Run("stale-version", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := Open(dir)
		st.Put("k", cell(1))
		if err := os.WriteFile(st.path("k"), foreignVersion(t, st, "k"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out record
		if st.Get("k", &out) {
			t.Fatal("stale-version file read as a hit")
		}
	})
	t.Run("key-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := Open(dir)
		st.Put("other", cell(2))
		// Copy the file to where "k" would live: the embedded key differs.
		src := st.path("other")
		dst := st.path("k")
		os.MkdirAll(filepath.Dir(dst), 0o755)
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(dst, data, 0o644)
		var out record
		if st.Get("k", &out) {
			t.Fatal("key-mismatched file read as a hit")
		}
	})
}

// TestDefectiveEntriesEvicted: a truncated entry, one trailing byte, and one
// flipped key byte are each a miss, and Get removes the file.
func TestDefectiveEntriesEvicted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(raw []byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)-1] }},
		{"trailing-byte", func(raw []byte) []byte { return append(raw, 0) }},
		{"flipped-key-byte", func(raw []byte) []byte {
			raw[len(entryMagic)+2] ^= 0x01 // first key byte, after magic, version and length
			return raw
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, _ := Open(t.TempDir())
			st.Put("some-key", cell(3))
			raw, err := os.ReadFile(st.path("some-key"))
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(st.path("some-key"), tc.mangle(raw), 0o644)
			var out record
			if st.Get("some-key", &out) {
				t.Fatal("defective entry read as a hit")
			}
			if _, err := os.Stat(st.path("some-key")); !os.IsNotExist(err) {
				t.Fatal("Get left the defective entry in place")
			}
			if st.Evictions() != 1 {
				t.Fatalf("evictions = %d, want 1", st.Evictions())
			}
		})
	}
}

// TestLegacyEntryIgnored: a version-1 entry (a gob stream under the old
// <hash>.gob name, captured from the previous format) is a Get miss, is not
// listed by Digests, and is removed by GC as stale.
func TestLegacyEntryIgnored(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "format1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, _ := Open(dir)
	const key = "legacy-key"
	cur := st.path(key)
	old := cur[:len(cur)-len(entryExt)] + legacyExt
	os.MkdirAll(filepath.Dir(old), 0o755)
	if err := os.WriteFile(old, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var out record
	if st.Get(key, &out) {
		t.Fatal("version-1 entry read as a hit")
	}
	if ds := st.Digests(); len(ds) != 0 {
		t.Fatalf("version-1 entry listed: %x", ds)
	}
	if err := VerifyRaw(key, legacy); err == nil {
		t.Fatal("version-1 bytes verified as a current entry")
	}
	res, err := st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedStale != 1 || res.Kept != 0 {
		t.Fatalf("GC stale/kept = %d/%d, want 1/0", res.RemovedStale, res.Kept)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("GC left the version-1 entry in place")
	}
}

func TestForMemoizes(t *testing.T) {
	if For("") != nil {
		t.Fatal("For(\"\") should be nil")
	}
	dir := t.TempDir()
	a, b := For(dir), For(dir)
	if a == nil || a != b {
		t.Fatal("For should memoize per directory")
	}
}

// TestPutMakesEntryDirectory: a Put into a fresh store creates the entry's
// <hh>/ directory, and so does one whose store directory was removed after
// Open; both entries read back.
func TestPutMakesEntryDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k1", cell(1)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k2", cell(2)); err != nil {
		t.Fatalf("Put after the store directory was removed: %v", err)
	}
	var out record
	if !st.Get("k2", &out) || out != cell(2) {
		t.Fatalf("k2 did not read back: %+v", out)
	}
	if _, err := os.Stat(filepath.Dir(st.path("k2"))); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutsShareNewDirectory: two Puts racing to create the same
// new <hh>/ directory both succeed and both entries read back.
func TestConcurrentPutsShareNewDirectory(t *testing.T) {
	// Two keys whose entries share a directory.
	byDir := map[string]string{}
	var k1, k2 string
	for i := 0; k2 == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		d := entryName(KeyDigest(k))[:2]
		if prev, ok := byDir[d]; ok {
			k1, k2 = prev, k
		}
		byDir[d] = k
	}
	for round := 0; round < 20; round++ {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		start := make(chan struct{})
		for i, k := range []string{k1, k2} {
			go func() {
				<-start
				errs <- st.Put(k, cell(uint64(i)))
			}()
		}
		close(start)
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: concurrent Put: %v", round, err)
			}
		}
		for i, k := range []string{k1, k2} {
			var out record
			if !st.Get(k, &out) || out != cell(uint64(i)) {
				t.Fatalf("round %d: %s did not read back: %+v", round, k, out)
			}
		}
	}
}
