package snapshot

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes blob to path via a temp file ("path.tmp") and a
// rename, creating the parent directory on demand, so a crash mid-write
// never leaves a torn file where a valid one stood. It does not fsync:
// the rename is atomic against a process crash, not a power loss.
func WriteFileAtomic(path string, blob []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
