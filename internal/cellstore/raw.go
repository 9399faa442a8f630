package cellstore

// Raw-entry access: the peer cell exchange (internal/dist) moves store
// entries between machines as opaque byte blobs — the exact bytes a file
// holds, header included — so a fetched cell installs with the same format
// guarantees a locally written one has. Keys enumerates what a store
// can serve, which is what a worker advertises to the fleet.
//
// The fingerprint contract: cache keys embed the binary fingerprint (see
// Fingerprint and the callers' key formats), so a key match on the header
// IS a fingerprint match — raw bytes produced by a different build carry a
// different key and are rejected at install, never silently replayed.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// keyStamp memoizes one file's decoded key against its stat identity, so
// repeated Keys scans (a worker re-advertising every second) decode only
// files that changed since the last scan.
type keyStamp struct {
	key   string
	size  int64
	mtime time.Time
}

// Keys enumerates every current-format entry's key, sorted. Entries whose
// header cannot be parsed, or that carry a foreign format version, are
// skipped (they cannot be served, so they must not be advertised), and so
// are version-1 .gob files. Results are cached per file against
// size+mtime, so steady-state rescans cost one directory walk and zero
// parses.
func (s *Store) Keys() []string {
	s.keysMu.Lock()
	defer s.keysMu.Unlock()
	if s.keyCache == nil {
		s.keyCache = map[string]keyStamp{}
	}
	seen := map[string]bool{}
	var keys []string
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), entryExt) {
				continue
			}
			path := filepath.Join(s.dir, sub.Name(), e.Name())
			info, err := e.Info()
			if err != nil {
				continue
			}
			seen[path] = true
			if st, ok := s.keyCache[path]; ok && st.size == info.Size() && st.mtime.Equal(info.ModTime()) {
				if st.key != "" {
					keys = append(keys, st.key)
				}
				continue
			}
			key, _ := entryKey(path)
			s.keyCache[path] = keyStamp{key: key, size: info.Size(), mtime: info.ModTime()}
			if key != "" {
				keys = append(keys, key)
			}
		}
	}
	for path := range s.keyCache {
		if !seen[path] {
			delete(s.keyCache, path)
		}
	}
	sort.Strings(keys)
	return keys
}

// entryKey parses one file's header and returns its key; ok is false when
// the entry is not a servable current-format one.
func entryKey(path string) (key string, ok bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	k, _, err := parseHeader(raw)
	if err != nil {
		return "", false
	}
	return string(k), true
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
// is removed so it cannot be re-advertised.
func (s *Store) GetRaw(key string) ([]byte, bool) {
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	if VerifyRaw(key, raw) != nil {
		os.Remove(path)
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
// DecodeRaw does that — so it is cheap enough for relay paths that never
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
