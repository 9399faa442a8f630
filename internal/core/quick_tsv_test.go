package core_test

// Cross-commit results oracle for every registered experiment. It runs each
// experiments.IDs() entry at Quick scale, serially, and compares the SHA-256
// of its TSV output (all artifacts of the entry, concatenated in order) with
// testdata/quick_tsv.golden. A simulator change that claims byte-identical
// results must pass it unchanged.
//
// Regenerate with UPDATE_GOLDEN=1 go test -run TestQuickTSVGolden
// ./internal/core/ — only in a change that means to alter results.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// quickTSVDigests returns one "quick/<id> <sha256>" line per experiment.
func quickTSVDigests(t *testing.T) []string {
	var lines []string
	for _, id := range experiments.IDs() {
		arts, err := experiments.Run(id, experiments.Options{Scale: experiments.Quick, Parallel: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h := sha256.New()
		for _, a := range arts {
			h.Write([]byte(a.TSV()))
		}
		lines = append(lines, fmt.Sprintf("quick/%s %x", id, h.Sum(nil)))
	}
	return lines
}

// TestQuickTSVGolden: every quick-scale experiment renders the same TSV
// bytes as the commit that wrote the golden.
func TestQuickTSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick-scale experiment")
	}
	got := strings.Join(quickTSVDigests(t), "\n") + "\n"
	path := filepath.Join("testdata", "quick_tsv.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("quick-scale TSVs differ from %s (regenerate with UPDATE_GOLDEN=1 only if the change in results is intended)\ngot:\n%s", path, got)
	}
}
