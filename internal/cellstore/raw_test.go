package cellstore

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestDigestsListEntriesUntilEvicted: Digests lists one digest per stored
// key, in name order, with no header read: a corrupt or foreign-format
// entry is listed until the Get or GetRaw that finds it evicts it.
func TestDigestsListEntriesUntilEvicted(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if got := st.Digests(); len(got) != 0 {
		t.Fatalf("empty store Digests = %x, want none", got)
	}
	keys := []string{"cell-b", "cell-a", "cell-c"}
	for i, k := range keys {
		if err := st.Put(k, cell(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]Digest, len(keys))
	for i, k := range keys {
		want[i] = KeyDigest(k)
	}
	slices.SortFunc(want, func(a, b Digest) int { return bytes.Compare(a[:], b[:]) })
	if got := st.Digests(); !slices.Equal(got, want) {
		t.Fatalf("Digests = %x, want %x", got, want)
	}

	// A corrupt entry and a foreign-format entry are still listed: nothing
	// reads them until a lookup does.
	if err := os.WriteFile(st.path("cell-a"), []byte("definitely not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("cell-b"), foreignVersion(t, st, "cell-b"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := st.Digests(); !slices.Equal(got, want) {
		t.Fatalf("Digests after corruption = %x, want the unchanged %x", got, want)
	}
	var out record
	if st.Get("cell-a", &out) {
		t.Fatal("corrupt entry read as a hit")
	}
	if _, ok := st.GetRaw("cell-b"); ok {
		t.Fatal("foreign-format entry served raw")
	}
	if got := st.Digests(); len(got) != 1 || got[0] != KeyDigest("cell-c") {
		t.Fatalf("Digests after eviction = %x, want only cell-c's", got)
	}
}

// TestDigestsListsEntryNamesOnly: Digests decodes exactly the
// <hh>/<64 lowercase hex>.cell names and skips every other file or
// directory a store directory can hold.
func TestDigestsListsEntryNamesOnly(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	st.Put("kept", cell(1))
	d := KeyDigest("kept")
	name := entryName(d)
	hh := filepath.Join(dir, name[:2])
	other := entryName(KeyDigest("other"))
	touch := func(path string) {
		t.Helper()
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	touch(filepath.Join(hh, ".tmp-123"))
	touch(filepath.Join(hh, name[:len(name)-len(entryExt)]+legacyExt))
	touch(filepath.Join(dir, "manifest.json"))
	touch(filepath.Join(hh, "zz"+name[2:]))                       // non-hex
	touch(filepath.Join(hh, strings.ToUpper(name[:64])+entryExt)) // not the lowercase spelling
	touch(filepath.Join(hh, name[:62]+entryExt))                  // too short
	touch(filepath.Join(hh, name[:64]+"00"+entryExt))             // too long
	touch(filepath.Join(dir, name))                               // outside any <hh>
	touch(filepath.Join(dir, "abc", name))                        // three-letter subdirectory
	touch(filepath.Join(hh, other))                               // in the wrong <hh>
	os.MkdirAll(filepath.Join(dir, other[:2], other), 0o755)      // a directory, not a file
	os.MkdirAll(filepath.Join(dir, "zz"), 0o755)                  // stray empty subdirectory
	touch(filepath.Join(dir, "ab"))                               // a file where a <hh> would be
	if got := st.Digests(); len(got) != 1 || got[0] != d {
		t.Fatalf("Digests = %x, want exactly %x", got, d)
	}
	if got, ok := parseEntryName(name); !ok || got != d {
		t.Fatalf("parseEntryName(entryName(d)) = %x, %v", got, ok)
	}
}

// TestRawRoundTrip: GetRaw bytes install via PutRaw on a second store and
// decode to the original value.
func TestRawRoundTrip(t *testing.T) {
	src, _ := Open(t.TempDir())
	dst, _ := Open(t.TempDir())
	in := cell(4)
	if err := src.Put("k", in); err != nil {
		t.Fatal(err)
	}
	raw, ok := src.GetRaw("k")
	if !ok {
		t.Fatal("GetRaw missed a present entry")
	}
	var direct record
	if err := DecodeRaw(raw, "k", &direct); err != nil {
		t.Fatalf("DecodeRaw: %v", err)
	}
	if direct != in {
		t.Fatalf("DecodeRaw value = %+v, want %+v", direct, in)
	}
	if err := dst.PutRaw("k", raw); err != nil {
		t.Fatalf("PutRaw: %v", err)
	}
	var out record
	if !dst.Get("k", &out) {
		t.Fatal("installed raw entry missed on Get")
	}
	if out != in {
		t.Fatalf("raw round-trip mangled: %+v", out)
	}
	if !dst.Contains("k") || dst.Contains("absent") {
		t.Fatal("Contains disagrees with the store's contents")
	}
}

// TestPutRawRejectsDefects: corrupt bytes and a key (= fingerprint)
// mismatch are rejected before anything touches disk.
func TestPutRawRejectsDefects(t *testing.T) {
	src, _ := Open(t.TempDir())
	dst, _ := Open(t.TempDir())
	src.Put("honest-key", cell(5))
	raw, _ := src.GetRaw("honest-key")

	if err := dst.PutRaw("honest-key", []byte("garbage bytes")); err == nil {
		t.Fatal("PutRaw accepted undecodable bytes")
	}
	// A peer claiming these bytes belong to a different key — which is how
	// a binary-fingerprint mismatch manifests, keys embedding the
	// fingerprint — must be refused.
	if err := dst.PutRaw("key-with-other-fingerprint", raw); err == nil {
		t.Fatal("PutRaw accepted a key-mismatched entry")
	}
	var v record
	if err := DecodeRaw(raw, "key-with-other-fingerprint", &v); err == nil {
		t.Fatal("DecodeRaw accepted a key-mismatched entry")
	}
	if err := DecodeRaw([]byte("garbage"), "honest-key", &v); err == nil {
		t.Fatal("DecodeRaw accepted garbage")
	}
	if dst.Contains("honest-key") || dst.Contains("key-with-other-fingerprint") {
		t.Fatal("a rejected PutRaw left a file behind")
	}
	if err := dst.PutRaw("honest-key", raw); err != nil {
		t.Fatalf("PutRaw rejected an intact entry: %v", err)
	}
}

// TestGetRemovesPoisonedEntries: a corrupt, stale-format, or key-mismatched
// file is deleted by the Get (and GetRaw) that discovers it, so it cannot
// linger and be re-advertised to peers.
func TestGetRemovesPoisonedEntries(t *testing.T) {
	t.Run("get", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := Open(dir)
		st.Put("k", cell(1))
		corrupt(t, dir, []byte("not a cell entry"))
		var out record
		if st.Get("k", &out) {
			t.Fatal("corrupt file read as a hit")
		}
		if _, err := os.Stat(st.path("k")); !os.IsNotExist(err) {
			t.Fatal("Get left the poisoned file in place")
		}
		if got := st.Digests(); len(got) != 0 {
			t.Fatalf("poisoned entry still listed: %x", got)
		}
	})
	t.Run("getraw", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := Open(dir)
		st.Put("k", cell(1))
		corrupt(t, dir, []byte("still not an entry"))
		if _, ok := st.GetRaw("k"); ok {
			t.Fatal("corrupt file served raw")
		}
		if _, err := os.Stat(st.path("k")); !os.IsNotExist(err) {
			t.Fatal("GetRaw left the poisoned file in place")
		}
		if st.Evictions() != 1 {
			t.Fatalf("evictions = %d, want 1", st.Evictions())
		}
		if got := st.Digests(); len(got) != 0 {
			t.Fatalf("poisoned entry still listed: %x", got)
		}
	})
	t.Run("truncated-value", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := Open(dir)
		st.Put("k", cell(1))
		// An intact header with a truncated value body must also be
		// removed: VerifyRaw alone would pass it, Get must not.
		raw, _ := st.GetRaw("k")
		os.WriteFile(st.path("k"), raw[:len(raw)-3], 0o644)
		var out record
		if st.Get("k", &out) {
			t.Fatal("truncated value read as a hit")
		}
		if _, err := os.Stat(st.path("k")); !os.IsNotExist(err) {
			t.Fatal("Get left the truncated file in place")
		}
	})
}
