// Package cellstore is a persistent content-addressed result cache for
// simulation cells. Every cell of the paper's evaluation is a pure
// deterministic function of its configuration, so a result can be stored on
// disk under a hash of that configuration and replayed for free on any
// later invocation: `bashsim -exp all -scale full` resumes after an
// interruption, and unchanged cells cost zero simulations on re-run.
//
// Layout: <dir>/<hh>/<hash>.cell, where hash is the hex SHA-256 of the
// caller's key string and hh its first two digits (fan-out so no directory
// grows unboundedly). Each file is one entry: the magic "BSCE", the format
// version byte (2), the key's length as a uvarint, the full key — guarding
// against format drift and hash collisions — and then the caller's value
// in its own encoding (see Value and Target) up to the end of the file.
// Files are written to a temporary name and renamed, so readers never
// observe partial writes. Version-1 entries (gob streams under <hash>.gob)
// are never read; GC removes them as stale.
//
// The store is forgiving by design: a missing, corrupt, stale-version or
// key-mismatched file is a miss, never an error — the caller simply
// re-simulates (and overwrites it). Callers version their key strings, so
// changing a cell's semantics orphans old entries rather than corrupting
// results.
package cellstore

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Fingerprint returns a hex digest of the running executable, computed once
// per process. Callers fold it into their cache keys so that results
// produced by one build of the simulator are never replayed by another: a
// code change — a protocol fix, a metrics tweak — changes the binary,
// which orphans every stale entry without anyone remembering to bump a
// format constant. Identical rebuilds keep their hits. If the executable
// cannot be read, the fingerprint is "unhashable", which still separates
// such processes from normally fingerprinted ones.
func Fingerprint() string {
	fingerprintOnce.Do(func() {
		fingerprint = "unhashable"
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		fingerprint = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return fingerprint
}

var (
	fingerprintOnce sync.Once
	fingerprint     string
)

// Store is one on-disk cache directory. Safe for concurrent use.
type Store struct {
	dir                  string
	hits, misses, writes atomic.Uint64
	evictions            atomic.Uint64 // defective entries removed by Get, plus GC removals

	// keysMu guards keyCache, the per-file key memo behind Keys (raw.go).
	keysMu   sync.Mutex
	keyCache map[string]keyStamp
}

// Open returns the store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// stores memoizes For by directory so counters aggregate per process.
var stores sync.Map // dir -> *Store

// For returns the process-wide store for dir, opening it on first use, or
// nil when dir is empty or unusable (persistence is then simply off).
// Counters accumulate across every user of the same directory, which is
// what the CLIs report.
func For(dir string) *Store {
	if dir == "" {
		return nil
	}
	if v, ok := stores.Load(dir); ok {
		return v.(*Store)
	}
	st, err := Open(dir)
	if err != nil {
		return nil
	}
	v, _ := stores.LoadOrStore(dir, st)
	return v.(*Store)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its file.
func (s *Store) path(key string) string {
	h := sha256.Sum256([]byte(key))
	hx := hex.EncodeToString(h[:])
	return filepath.Join(s.dir, hx[:2], hx+entryExt)
}

// Get decodes the stored result for key into value and reports whether it
// was present and intact. Any defect — absent file, foreign magic or format
// version, colliding key, a value body its Target refuses — counts as a
// miss, and the defective file is removed: with stores advertised to peers
// (see Keys and the dist exchange), a poisoned entry left in place could be
// re-served forever, whereas removal costs at most one re-simulation. The
// removal can in principle race a concurrent Put refreshing the same path
// and delete the fresh entry; that, too, only costs a future re-simulation.
func (s *Store) Get(key string, value Target) bool {
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return false
	}
	if DecodeRaw(raw, key, value) != nil {
		if os.Remove(path) == nil {
			s.evictions.Add(1)
		}
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// Put stores value under key, atomically (write to a temp file, then
// rename). Errors are returned for observability but are safe to ignore:
// a failed Put only costs a future re-simulation.
func (s *Store) Put(key string, value Value) error {
	// 128 bytes beyond the key hold the header and a core.Metrics record.
	raw, err := value.AppendCell(appendHeader(make([]byte, 0, 128+len(key)), key))
	if err != nil {
		return err
	}
	return s.write(key, raw)
}

// write installs one encoded entry under key: a temp file in the entry's
// directory, renamed over the entry.
func (s *Store) write(key string, raw []byte) error {
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.writes.Add(1)
	return nil
}

// Counters reports lifetime hit/miss/write counts for progress output.
func (s *Store) Counters() (hits, misses, writes uint64) {
	return s.hits.Load(), s.misses.Load(), s.writes.Load()
}

// Evictions reports the lifetime count of entries this process removed from
// the store: defective files evicted by Get plus GC removals.
func (s *Store) Evictions() uint64 { return s.evictions.Load() }
