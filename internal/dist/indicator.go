package dist

// Cell-store membership indicators: compact Bloom filters workers advertise
// over their cellstore entries so the coordinator can route fetches to
// likely holders instead of letting every cold worker re-simulate. The design
// follows the cache-indicator literature the paper's bandwidth-adaptivity
// idea comes from: a filter answers "might this peer hold key K" with a
// tunable false-positive rate, and its size (bits per key) plus refresh
// cadence adapt to an advertisement bandwidth budget — a false positive
// costs one failed fetch round-trip before the requester simulates, never
// a wrong result.
//
// Hashing is double hashing over SHA-256(key): deterministic across
// processes and builds, so any worker's filter is meaningful to any
// coordinator. That digest is also the entry's file name in the store
// (cellstore.KeyDigest), so a worker builds its filter from a directory
// listing (cellstore.Store.Digests): no entry is read and nothing is kept
// per entry between rebuilds, and a corrupt entry stays advertised until a
// lookup evicts it, at the cost of one failed fetch. A coordinator hashes
// a granted key once and probes every table entry with that digest.
// Filter capacity grows in powers of two, so a steadily growing store keeps
// one filter geometry for a while and deltas (XOR of bit arrays, sent when
// geometry and generation line up) stay small.

import (
	"bytes"
	"encoding/binary"

	"repro/internal/cellstore"
)

// Filter geometry bounds.
const (
	// minFilterBits is the smallest filter ever built (even an empty store
	// advertises something, which tells the coordinator "I hold nothing").
	minFilterBits = 64
	// maxFilterBytes bounds a filter on both ends of the wire: parse
	// rejects anything larger, and builders shrink bits-per-key before
	// ever exceeding it.
	maxFilterBytes = 1 << 22
	// defaultBitsPerKey targets a ~0.5% false-positive rate (k≈8); the
	// budget adaptation halves it (to minBitsPerKey) when a full send
	// would blow the advert budget.
	defaultBitsPerKey = 12
	minBitsPerKey     = 2
	maxFilterHashes   = 16
)

// cellFilter is one Bloom filter over store key digests.
type cellFilter struct {
	m    uint32 // bits
	k    uint8  // hash functions
	bits []byte // (m+7)/8 bytes
}

// filterHashes derives the two double-hashing bases from a key's digest.
func filterHashes(d cellstore.Digest) (h1, h2 uint64) {
	h1 = binary.BigEndian.Uint64(d[0:8])
	h2 = binary.BigEndian.Uint64(d[8:16])
	// An even h2 would cycle over a fraction of a power-of-two m.
	h2 |= 1
	return h1, h2
}

// hashCount is the standard k ≈ bpk·ln2 rounded, clamped to a useful range.
func hashCount(bitsPerKey int) uint8 {
	k := (bitsPerKey*69 + 50) / 100
	if k < 1 {
		k = 1
	}
	if k > maxFilterHashes {
		k = maxFilterHashes
	}
	return uint8(k)
}

// filterBits picks the power-of-two size holding n keys at bitsPerKey.
func filterBits(n, bitsPerKey int) uint32 {
	need := n * bitsPerKey
	m := uint32(minFilterBits)
	for int(m) < need && m < maxFilterBytes*8 {
		m <<= 1
	}
	return m
}

// buildFilter constructs a filter over key digests at the given
// bits-per-key.
func buildFilter(ds []cellstore.Digest, bitsPerKey int) *cellFilter {
	f := &cellFilter{m: filterBits(len(ds), bitsPerKey), k: hashCount(bitsPerKey)}
	f.bits = make([]byte, (f.m+7)/8)
	for _, d := range ds {
		f.add(d)
	}
	return f
}

// storeFilter is one advert rebuild: the filter over st's entries, at the
// density that fits budget.
func storeFilter(st *cellstore.Store, budget int) *cellFilter {
	ds := st.Digests()
	return buildFilter(ds, budgetBitsPerKey(len(ds), budget))
}

func (f *cellFilter) add(d cellstore.Digest) {
	h1, h2 := filterHashes(d)
	for i := uint8(0); i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % uint64(f.m)
		f.bits[idx>>3] |= 1 << (idx & 7)
	}
}

// contains reports whether the key with digest d may be in the set (false
// positives possible, false negatives not).
func (f *cellFilter) contains(d cellstore.Digest) bool {
	if f == nil || f.m == 0 {
		return false
	}
	h1, h2 := filterHashes(d)
	for i := uint8(0); i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % uint64(f.m)
		if f.bits[idx>>3]&(1<<(idx&7)) == 0 {
			return false
		}
	}
	return true
}

// equal reports whether two filters have identical geometry and contents.
func (f *cellFilter) equal(o *cellFilter) bool {
	return o != nil && f.m == o.m && f.k == o.k && bytes.Equal(f.bits, o.bits)
}

// sameShape reports whether a delta between the two filters is meaningful.
func (f *cellFilter) sameShape(o *cellFilter) bool {
	return o != nil && f.m == o.m && f.k == o.k && len(f.bits) == len(o.bits)
}

// xor returns f ⊕ o (caller guarantees sameShape). Applying the result to o
// reconstructs f, which is how delta adverts work: bits only ever turn on
// as a store grows, so deltas are sparse and compress to almost nothing
// under the wire's shared deflate context.
func (f *cellFilter) xor(o *cellFilter) []byte {
	out := make([]byte, len(f.bits))
	for i := range out {
		out[i] = f.bits[i] ^ o.bits[i]
	}
	return out
}

// applyDelta XORs delta into the filter in place.
func (f *cellFilter) applyDelta(delta []byte) {
	for i := range f.bits {
		f.bits[i] ^= delta[i]
	}
}

// clone returns an independent copy (table entries must not alias a
// builder's buffer).
func (f *cellFilter) clone() *cellFilter {
	return &cellFilter{m: f.m, k: f.k, bits: append([]byte(nil), f.bits...)}
}

// budgetBitsPerKey adapts the filter density to the advert budget: starting
// from defaultBitsPerKey, halve until a full filter send fits within one
// budget-second (or the floor is hit). A tight budget therefore costs
// false-positive rate — wasted fetch round-trips — rather than blowing the
// byte cap; budget <= 0 means unlimited.
func budgetBitsPerKey(nkeys, budget int) int {
	bpk := defaultBitsPerKey
	if budget <= 0 {
		return bpk
	}
	for bpk > minBitsPerKey && int(filterBits(nkeys, bpk))/8 > budget {
		if bpk /= 2; bpk < minBitsPerKey {
			bpk = minBitsPerKey
		}
	}
	return bpk
}

// advertDelay is the bandwidth-adaptive refresh pacing: after sending
// sentBytes against a bytes/sec budget, the next advert waits at least
// sentBytes/budget seconds (expressed in integer milliseconds), so the
// advert stream's long-run rate stays under budget no matter how fast the
// store churns. The caller takes the max of this and its base interval.
func advertDelayMillis(sentBytes, budget int) int64 {
	if budget <= 0 || sentBytes <= 0 {
		return 0
	}
	return int64(sentBytes) * 1000 / int64(budget)
}
