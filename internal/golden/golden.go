// Package golden pins test output to committed golden files. It is the
// one re-cut switch for every golden in the repository: run the golden
// tests with -update to rewrite the files instead of comparing against
// them,
//
//	go test . ./internal/fleet -run Golden -update
//
// and commit the re-cut files together, naming the reason (for a new
// sampling epoch, the epoch) in CHANGES.md. Only test code imports this
// package.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// Check compares got with the golden file at path, or rewrites the file
// when the test binary runs with -update.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (re-cut with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden (%d bytes, golden %d); first difference at byte %d. "+
			"A deliberate change re-cuts every golden at once with -update.",
			path, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
