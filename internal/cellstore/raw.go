package cellstore

// Raw-entry access: the peer cell exchange (internal/dist) moves store
// entries between machines as opaque byte blobs — the exact bytes a file
// holds, header included — so a fetched cell installs with the same format
// guarantees a locally written one has. Digests lists what a store holds,
// from its file names alone, which is what a worker advertises to the
// fleet: an entry is advertised with no per-entry state kept, and a corrupt
// one stays advertised until the Get or GetRaw that finds it evicts it.
//
// The fingerprint contract: cache keys embed the binary fingerprint (see
// Fingerprint and the callers' key formats), so a key match on the header
// IS a fingerprint match — raw bytes produced by a different build carry a
// different key and are rejected at install, never silently replayed.

import (
	"fmt"
	"os"
	"path/filepath"
)

// Digests lists the digest of every entry file in the store, in name
// order, from file names alone: it walks the <hh> subdirectories and
// decodes each <hex digest>.cell name whose first two digits name its
// subdirectory (where Get would look for it). It reads no entry, stats no
// file and keeps nothing between calls. Temp files, version-1 .gob files
// and any other name are skipped. A corrupt or foreign-format .cell file
// is listed until a Get or GetRaw evicts it: advertised to peers, it costs
// at most one failed fetch, which the fetch path verifies and refuses.
func (s *Store) Digests() []Digest {
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var ds []Digest
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if d, ok := parseEntryName(e.Name()); ok && !e.IsDir() && e.Name()[:2] == sub.Name() {
				ds = append(ds, d)
			}
		}
	}
	return ds
}

// Contains reports whether an entry file exists for key without decoding
// it (one stat). The coordinator's grant-hint path calls this per granted
// job; a corrupt entry answering true only costs the requester one failed
// fetch before it simulates.
func (s *Store) Contains(key string) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

// GetRaw returns the verbatim stored bytes for key — the whole entry,
// header included — suitable for shipping to a peer and installing via
// PutRaw. Like Get, any defect is a miss, and a corrupt or mismatched file
// is removed (and counted in Evictions), which takes it out of the next
// advert.
func (s *Store) GetRaw(key string) ([]byte, bool) {
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	if VerifyRaw(key, raw) != nil {
		if os.Remove(path) == nil {
			s.evictions.Add(1)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return raw, true
}

// PutRaw installs raw bytes (a peer's GetRaw output) under key, atomically
// (temp file + rename) like Put. The header is verified before anything
// touches the store: wrong magic or format, wrong key — which, keys
// embedding the binary fingerprint, includes a fingerprint mismatch — or an
// unparsable header are rejected, so a confused or malicious peer can never
// poison the local store (fail closed).
func (s *Store) PutRaw(key string, raw []byte) error {
	if err := VerifyRaw(key, raw); err != nil {
		return err
	}
	return s.write(key, raw)
}

// VerifyRaw checks that raw is an entry for key: a parsable current-format
// header whose key matches exactly. It does not decode the value —
// DecodeRaw does that — so it is cheap enough for fetch paths that never
// interpret the payload.
func VerifyRaw(key string, raw []byte) error {
	_, err := checkEntry(key, raw)
	return err
}

// DecodeRaw decodes a raw entry's value into value after verifying its
// header against key. This is the fetch path's fail-closed gate: any defect
// returns an error and the caller falls back to simulating locally — a
// peer can cost a fetch round-trip, never a wrong result.
func DecodeRaw(raw []byte, key string, value Target) error {
	v, err := checkEntry(key, raw)
	if err != nil {
		return err
	}
	if err := value.DecodeCell(v); err != nil {
		return fmt.Errorf("cellstore: raw entry: undecodable value: %w", err)
	}
	return nil
}
