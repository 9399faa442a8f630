package cellstore

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// GCResult summarizes one garbage-collection pass.
type GCResult struct {
	// Kept counts entries left in place; KeptBytes their total size.
	Kept      int
	KeptBytes int64
	// RemovedStale counts entries evicted because their header carried a
	// foreign format version or could not be parsed at all, plus leftover
	// version-1 .gob files — they can never hit again, only waste space.
	RemovedStale int
	// RemovedExpired counts intact entries evicted for age.
	RemovedExpired int
	// RemovedTemp counts abandoned temporary files (crashed writers).
	RemovedTemp  int
	RemovedBytes int64
}

// Removed is the total number of evicted files.
func (r GCResult) Removed() int {
	return r.RemovedStale + r.RemovedExpired + r.RemovedTemp
}

// tempMaxAge is how old an orphaned temp file must be before GC removes it;
// younger ones may belong to a writer that is still running.
const tempMaxAge = time.Hour

// GC walks the store and evicts entries that can no longer (or should no
// longer) hit: files whose header carries a stale format version or is
// unreadable, version-1 .gob files, files older than maxAge (zero keeps any
// age — format-stale entries are still evicted), and temp-file litter from
// crashed writers. Age is the file's modification time, i.e. when the entry
// was written. Concurrent readers are safe: an entry disappearing under a
// Get is an ordinary miss. The walk continues past per-file errors; only a
// broken walk itself is returned.
func (s *Store) GC(maxAge time.Duration) (GCResult, error) {
	var res GCResult
	cutoff := time.Time{}
	// Temp litter must never outlive the entries themselves: under an
	// aggressive maxAge the default grace period is clamped down to it.
	tempAge := tempMaxAge
	if maxAge > 0 {
		cutoff = time.Now().Add(-maxAge)
		if maxAge < tempAge {
			tempAge = maxAge
		}
	}
	defer func() { s.evictions.Add(uint64(res.Removed())) }()
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // vanished underneath us
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			if time.Since(info.ModTime()) > tempAge {
				if os.Remove(path) == nil {
					res.RemovedTemp++
					res.RemovedBytes += info.Size()
				}
			}
		case strings.HasSuffix(name, entryExt), strings.HasSuffix(name, legacyExt):
			switch {
			case strings.HasSuffix(name, legacyExt) || !entryCurrent(path):
				if os.Remove(path) == nil {
					res.RemovedStale++
					res.RemovedBytes += info.Size()
				}
			case !cutoff.IsZero() && info.ModTime().Before(cutoff):
				if os.Remove(path) == nil {
					res.RemovedExpired++
					res.RemovedBytes += info.Size()
				}
			default:
				res.Kept++
				res.KeptBytes += info.Size()
			}
		}
		// Anything else (manifest.json, stray files) is not ours to touch.
		return nil
	})
	return res, err
}

// entryCurrent reports whether the file holds a parsable header with the
// current format version.
func entryCurrent(path string) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	_, _, err = parseHeader(raw)
	return err == nil
}
