package dist

// Test-only access for the external dist_test package.

// AdvertEverything records a full all-ones indicator for worker that no
// connection owns: every key looks held, and no relay can answer for it.
func (c *Coordinator) AdvertEverything(worker string) {
	ones := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	c.advertRPC(advertRequest{Worker: worker, Gen: 1, Full: true, M: 64, K: 2, Bits: ones}, len(ones), nil)
}
