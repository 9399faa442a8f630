package dist

// Tests for the advert rebuild: a worker's indicator is built from its
// store's file names, must equal the filter built by hashing every key
// (the wire format and every peer's view depend on it), and must keep no
// per-entry state between rebuilds.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// numberedKeys returns n distinct cache keys.
func numberedKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell-key-%06d", i)
	}
	return keys
}

// keyFilter is the oracle: the filter built by hashing each key itself,
// as adverts were built when they enumerated keys from entry headers.
func keyFilter(keys []string, bitsPerKey int) *cellFilter {
	f := &cellFilter{m: filterBits(len(keys), bitsPerKey), k: hashCount(bitsPerKey)}
	f.bits = make([]byte, (f.m+7)/8)
	for _, key := range keys {
		sum := sha256.Sum256([]byte(key))
		h1 := binary.BigEndian.Uint64(sum[0:8])
		h2 := binary.BigEndian.Uint64(sum[8:16]) | 1
		for i := uint8(0); i < f.k; i++ {
			idx := (h1 + uint64(i)*h2) % uint64(f.m)
			f.bits[idx>>3] |= 1 << (idx & 7)
		}
	}
	return f
}

// TestStoreFilterMatchesKeyFilter: the advert built from a store's file
// names is bit-identical to the key-hashing oracle over the same entries,
// at the default density and at a budget-shrunk one, and for an empty
// store.
func TestStoreFilterMatchesKeyFilter(t *testing.T) {
	_, empty := storeWith(t)
	if got, want := storeFilter(empty, 0), keyFilter(nil, defaultBitsPerKey); !got.equal(want) {
		t.Errorf("empty store: filter m=%d k=%d differs from the oracle's m=%d k=%d", got.m, got.k, want.m, want.k)
	}
	keys := numberedKeys(3000)
	_, st := storeWith(t, keys...)
	const tight = 2 << 10 // bytes/s: forces the density down
	shrunk := budgetBitsPerKey(len(keys), tight)
	if shrunk >= defaultBitsPerKey {
		t.Fatalf("budget %d did not shrink bits-per-key (%d)", tight, shrunk)
	}
	for _, tc := range []struct {
		budget, bitsPerKey int
	}{{0, defaultBitsPerKey}, {tight, shrunk}} {
		got, want := storeFilter(st, tc.budget), keyFilter(keys, tc.bitsPerKey)
		if !got.equal(want) {
			t.Errorf("budget %d: store filter (m=%d k=%d) differs from the key-built oracle (m=%d k=%d)",
				tc.budget, got.m, got.k, want.m, want.k)
		}
	}
}

// TestAdvertRebuildRetainsNoHeap: rebuilding the advert keeps nothing per
// entry. Two rebuilds over a 20k-entry store leave under 1 MB more live
// heap after a collection, the two filters (32 KB each) included; a key
// memo kept for the life of the process costs hundreds of bytes per entry.
func TestAdvertRebuildRetainsNoHeap(t *testing.T) {
	_, st := storeWith(t, numberedKeys(20_000)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var filters [2]*cellFilter
	for i := range filters {
		filters[i] = storeFilter(st, 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(filters)
	runtime.KeepAlive(st) // a worker's store lives as long as its process
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("retained %d KB", grew>>10)
	if grew > 1<<20 {
		t.Errorf("two advert rebuilds retained %d KB of live heap, want under 1024 KB", grew>>10)
	}
}

// BenchmarkAdvertRebuild times one advert rebuild over a 26k-entry store,
// the size of the fleet benchmark's holder.
func BenchmarkAdvertRebuild(b *testing.B) {
	_, st := storeWith(b, numberedKeys(26_000)...)
	b.ReportAllocs()
	for b.Loop() {
		storeFilter(st, 0)
	}
}
