package cellstore

import (
	"os"
	"testing"
)

// TestKeysEnumeratesServableEntries: Keys lists exactly the intact
// current-format entries, sorted, and skips anything it could not serve.
func TestKeysEnumeratesServableEntries(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if got := st.Keys(); len(got) != 0 {
		t.Fatalf("empty store Keys = %v, want none", got)
	}
	for i, k := range []string{"cell-b", "cell-a", "cell-c"} {
		if err := st.Put(k, cell(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Keys()
	want := []string{"cell-a", "cell-b", "cell-c"}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	// A second scan must serve from the stat cache and agree.
	if again := st.Keys(); len(again) != len(want) {
		t.Fatalf("cached Keys = %v, want %v", again, want)
	}

	// A corrupt entry and a foreign-format entry must not be advertised.
	corrupt(t, dir, []byte("definitely not an entry"))
	if err := os.WriteFile(st.path("cell-b"), foreignVersion(t, st, "cell-b"), 0o644); err != nil {
		t.Fatal(err)
	}
	got = st.Keys()
	if len(got) != 1 {
		t.Fatalf("Keys after corruption = %v, want exactly one survivor", got)
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
		if got := st.Keys(); len(got) != 0 {
			t.Fatalf("poisoned entry still advertised: %v", got)
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
