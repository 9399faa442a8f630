package cellstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEntry: parsing an entry never panics, and every entry the parser
// accepts — header alone, and header plus a fixed-length record — is exactly the
// bytes the encoder writes for what was parsed, so no two byte strings
// decode to the same entry.
func FuzzEntry(f *testing.F) {
	good, _ := cell(9).AppendCell(appendHeader(nil, "bashsim-cell-v1|seed=9"))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(appendHeader(nil, ""))
	f.Add([]byte(entryMagic + "\x02\x80\x00")) // overlong zero key length
	if legacy, err := os.ReadFile(filepath.Join("testdata", "format1.gob")); err == nil {
		f.Add(legacy)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		key, value, err := parseHeader(raw)
		if err != nil {
			return
		}
		if again := append(appendHeader(nil, string(key)), value...); !bytes.Equal(again, raw) {
			t.Fatalf("accepted header re-encodes differently:\n raw   %x\n again %x", raw, again)
		}
		var m record
		if err := DecodeRaw(raw, string(key), &m); err != nil {
			return
		}
		again, err := m.AppendCell(appendHeader(nil, string(key)))
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("accepted entry re-encodes differently (%v):\n raw   %x\n again %x", err, raw, again)
		}
	})
}
