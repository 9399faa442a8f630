package dist

// Test-only access for the external dist_test package.

import "repro/internal/cellstore"

// AdvertEverything records a full all-ones indicator for worker, bound to
// a connection that no live worker owns and whose HELLO named addr: every
// key looks held, and grants send requesters to addr for it.
func (c *Coordinator) AdvertEverything(worker, addr string) {
	ones := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	c.advertRPC(advertRequest{Worker: worker, Gen: 1, Full: true, M: 64, K: 2, Bits: ones}, len(ones), &wireConn{worker: worker, peer: addr})
}

// AdvertMatches reports whether worker's applied indicator equals the
// filter its next advert rebuild would send for the store at dir (at an
// unlimited budget).
func (c *Coordinator) AdvertMatches(worker, dir string) bool {
	want := storeFilter(cellstore.For(dir), 0)
	c.exch.mu.Lock()
	defer c.exch.mu.Unlock()
	e := c.exch.table[worker]
	return e != nil && e.filter.equal(want)
}
