package cellstore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Value is a result the store can hold. AppendCell appends the value's own
// encoding to dst; the store frames it and never interprets it.
type Value interface {
	AppendCell(dst []byte) ([]byte, error)
}

// Target receives a stored value. DecodeCell must accept exactly the bytes
// AppendCell wrote and fail on anything else (a truncated body or a
// trailing byte included), so that a defective entry reads as a miss.
type Target interface {
	DecodeCell(src []byte) error
}

// entryMagic opens every entry file.
const entryMagic = "BSCE"

// formatVersion follows the magic and is bumped whenever the entry layout
// changes; entries with any other version are ignored (treated as a miss).
// Version 1 was a gob stream under <hash>.gob.
const formatVersion = 2

// entryExt is the entry files' extension; legacyExt is the version-1 one,
// whose files can never hit and are only removed by GC.
const (
	entryExt  = ".cell"
	legacyExt = ".gob"
)

// appendHeader appends the entry header for key: magic, version, uvarint
// key length, key. The value's bytes follow it to the end of the entry.
func appendHeader(dst []byte, key string) []byte {
	dst = append(dst, entryMagic...)
	dst = append(dst, formatVersion)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// parseHeader splits an entry into its key and value bytes without
// interpreting the value. It refuses a foreign magic or version, and a key
// length that is not minimally encoded or overruns the entry, so every
// accepted entry is exactly what appendHeader plus its value would write.
func parseHeader(raw []byte) (key, value []byte, err error) {
	n := len(entryMagic)
	if len(raw) <= n || string(raw[:n]) != entryMagic {
		return nil, nil, errors.New("cellstore: raw entry: not a cell entry")
	}
	if raw[n] != formatVersion {
		return nil, nil, fmt.Errorf("cellstore: raw entry: format %d (this build stores %d)", raw[n], formatVersion)
	}
	rest := raw[n+1:]
	klen, w := binary.Uvarint(rest)
	if w <= 0 || w != uvarintLen(klen) || klen > uint64(len(rest)-w) {
		return nil, nil, errors.New("cellstore: raw entry: bad key length")
	}
	rest = rest[w:]
	return rest[:klen], rest[klen:], nil
}

// uvarintLen is the length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// checkEntry parses raw and checks that it is an entry for key, returning
// the value bytes.
func checkEntry(key string, raw []byte) ([]byte, error) {
	k, v, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	if string(k) != key {
		return nil, fmt.Errorf("cellstore: raw entry: key mismatch (entry %q): wrong cell or wrong binary fingerprint", k)
	}
	return v, nil
}
