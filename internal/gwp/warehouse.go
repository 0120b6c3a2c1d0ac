// The profile warehouse: a bounded directory of window blobs plus a
// manifest. Layout:
//
//	MANIFEST.json   fingerprint, retention geometry, next raw index
//	raw-%08d.gwp    raw windows (most recent RawRetain)
//	hr-%08d.gwp     hourly merges of RawPerHourly raw windows
//	day-%08d.gwp    daily merges of HourlyPerDaily hourly windows
//
// Every mutation is a pure, idempotent function of the raw window
// index: appending window i writes raw-i, triggers the hourly merge
// exactly when i closes a RawPerHourly group (and the daily merge when
// that closes an HourlyPerDaily group), prunes the one window per tier
// that falls off retention, and rewrites the manifest last (all writes
// atomic: temp file + rename). A resumed run that re-appends windows it
// already wrote before the crash rewrites byte-identical files and
// skips the already-performed merges, so the warehouse converges to the
// uninterrupted run's bytes — the crash-tolerance contract.
package gwp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wsmalloc/internal/snapshot"
)

const (
	manifestName    = "MANIFEST.json"
	windowExt       = ".gwp"
	manifestVersion = 1
)

// Manifest is the warehouse's durable index. It carries no wall-clock
// timestamps: the file is part of the bit-identity contract.
type Manifest struct {
	Version     int       `json:"version"`
	Fingerprint string    `json:"fingerprint"`
	Retention   Retention `json:"retention"`
	// NextRaw is the next raw window index an uninterrupted run would
	// append; everything below it has been fully processed.
	NextRaw int64 `json:"next_raw"`
}

// Warehouse is an open profile warehouse. It is single-writer (the
// collection loop owns it); readers open with OpenRead.
type Warehouse struct {
	dir      string
	fp       string
	ret      Retention
	nextRaw  int64
	readOnly bool
}

// Open creates (or resumes) a warehouse for writing. fingerprint names
// the producing run + collection geometry; on resume it must match the
// manifest's, the same contract daemon checkpoints enforce. Without
// resume, any existing warehouse content in dir is wiped.
func Open(dir, fingerprint string, ret Retention, resume bool) (*Warehouse, error) {
	if dir == "" {
		return nil, fmt.Errorf("gwp: warehouse needs a directory")
	}
	ret = ret.withDefaults()
	w := &Warehouse{dir: dir, fp: fingerprint, ret: ret}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gwp: %w", err)
	}
	if resume {
		m, err := readManifest(dir)
		if err != nil {
			return nil, fmt.Errorf("gwp: resume: %w", err)
		}
		if m.Fingerprint != fingerprint {
			return nil, fmt.Errorf("gwp: warehouse belongs to a different run:\n  manifest: %s\n  want:     %s", m.Fingerprint, fingerprint)
		}
		if m.Retention != ret {
			return nil, fmt.Errorf("gwp: warehouse retention %+v, run configured %+v", m.Retention, ret)
		}
		w.nextRaw = m.NextRaw
		return w, nil
	}
	// Fresh run: remove stale windows, manifest and torn temp files so
	// the directory holds exactly this run's output.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("gwp: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if name == manifestName || strings.HasSuffix(name, windowExt) || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("gwp: wiping stale warehouse: %w", err)
			}
		}
	}
	if err := w.writeManifest(); err != nil {
		return nil, err
	}
	return w, nil
}

// OpenRead opens an existing warehouse for queries. No fingerprint is
// required and nothing is ever written.
func OpenRead(dir string) (*Warehouse, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("gwp: %w", err)
	}
	return &Warehouse{dir: dir, fp: m.Fingerprint, ret: m.Retention, nextRaw: m.NextRaw, readOnly: true}, nil
}

// Fingerprint returns the producing run's fingerprint.
func (w *Warehouse) Fingerprint() string { return w.fp }

// Retention returns the warehouse's retention geometry.
func (w *Warehouse) Retention() Retention { return w.ret }

// WindowsTotal returns how many raw windows were ever appended.
func (w *Warehouse) WindowsTotal() int64 { return w.nextRaw }

func readManifest(dir string) (Manifest, error) {
	var m Manifest
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		return m, fmt.Errorf("manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("manifest version %d, want %d", m.Version, manifestVersion)
	}
	return m, nil
}

func (w *Warehouse) writeManifest() error {
	blob, err := json.MarshalIndent(Manifest{
		Version: manifestVersion, Fingerprint: w.fp, Retention: w.ret, NextRaw: w.nextRaw,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("gwp: marshal manifest: %w", err)
	}
	return snapshot.WriteFileAtomic(filepath.Join(w.dir, manifestName), append(blob, '\n'))
}

func (w *Warehouse) path(tier int, index int64) string {
	return filepath.Join(w.dir, WindowID(tier, index)+windowExt)
}

func (w *Warehouse) writeWindow(win *Window) error {
	blob, err := EncodeWindow(win)
	if err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(filepath.Join(w.dir, win.Meta.ID+windowExt), blob)
}

// Append stores one raw window and runs the deterministic maintenance
// its index triggers: tier merges, retention pruning, manifest update.
// Re-appending an index below NextRaw (a resumed run replaying windows
// the pre-crash run already processed) rewrites the identical raw blob
// and skips the rest — the maintenance for that index already ran.
func (w *Warehouse) Append(win *Window) error {
	if w.readOnly {
		return fmt.Errorf("gwp: warehouse opened read-only")
	}
	if win.Meta.Tier != TierRaw {
		return fmt.Errorf("gwp: can only append raw windows, got %s", win.Meta.ID)
	}
	idx := win.Meta.Index
	if idx > w.nextRaw {
		return fmt.Errorf("gwp: append of window %d would leave a gap (next is %d)", idx, w.nextRaw)
	}
	if err := w.writeWindow(win); err != nil {
		return fmt.Errorf("gwp: window %s: %w", win.Meta.ID, err)
	}
	if idx < w.nextRaw {
		return nil // replay of an already-processed index
	}
	w.nextRaw = idx + 1

	// Close of a RawPerHourly group → hourly merge; close of an
	// HourlyPerDaily group of those → daily merge.
	if k := int64(w.ret.RawPerHourly); (idx+1)%k == 0 {
		h := (idx+1)/k - 1
		if err := w.mergeTier(TierRaw, h*k, k, TierHourly, h); err != nil {
			return err
		}
		if k2 := int64(w.ret.HourlyPerDaily); (h+1)%k2 == 0 {
			day := (h+1)/k2 - 1
			if err := w.mergeTier(TierHourly, day*k2, k2, TierDaily, day); err != nil {
				return err
			}
		}
	}
	w.prune()
	return w.writeManifest()
}

// mergeTier folds count windows of srcTier starting at srcLo into
// window dstIndex of dstTier.
func (w *Warehouse) mergeTier(srcTier int, srcLo, count int64, dstTier int, dstIndex int64) error {
	src := make([]*Window, 0, count)
	for i := srcLo; i < srcLo+count; i++ {
		win, err := w.Load(WindowID(srcTier, i))
		if err != nil {
			return fmt.Errorf("gwp: merging %s: %w", WindowID(dstTier, dstIndex), err)
		}
		src = append(src, win)
	}
	merged, err := MergeWindows(dstTier, dstIndex, src)
	if err != nil {
		return err
	}
	if err := w.writeWindow(merged); err != nil {
		return fmt.Errorf("gwp: window %s: %w", merged.Meta.ID, err)
	}
	return nil
}

// prune deletes the one window per tier that just fell off retention.
// Each append advances every tier's high-water mark by at most one, so
// removing a single index per tier keeps disk bounded; missing files
// (already pruned, or never merged) are fine.
func (w *Warehouse) prune() {
	maxRaw := w.nextRaw - 1
	w.pruneOne(TierRaw, maxRaw-int64(w.ret.RawRetain))
	k := int64(w.ret.RawPerHourly)
	maxHourly := w.nextRaw/k - 1
	w.pruneOne(TierHourly, maxHourly-int64(w.ret.HourlyRetain))
	k2 := int64(w.ret.HourlyPerDaily)
	maxDaily := w.nextRaw/(k*k2) - 1
	w.pruneOne(TierDaily, maxDaily-int64(w.ret.DailyRetain))
}

func (w *Warehouse) pruneOne(tier int, index int64) {
	if index < 0 {
		return
	}
	if err := os.Remove(w.path(tier, index)); err != nil && !os.IsNotExist(err) {
		// Retention is best-effort bounding, never a reason to fail a
		// tick; the next append retries nothing (the file stays until
		// a fresh Open wipes it).
		_ = err
	}
}

// List returns the metadata of every window on disk, sorted by tier
// (raw, hourly, daily) then index.
func (w *Warehouse) List() ([]WindowMeta, error) {
	ids, err := w.ListIDs()
	if err != nil {
		return nil, err
	}
	metas := make([]WindowMeta, 0, len(ids))
	for _, id := range ids {
		win, err := w.Load(id)
		if err != nil {
			return nil, err
		}
		metas = append(metas, win.Meta)
	}
	return metas, nil
}

// ListIDs returns every window ID on disk, sorted by tier then index.
func (w *Warehouse) ListIDs() ([]string, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("gwp: %w", err)
	}
	type key struct {
		tier  int
		index int64
	}
	keys := make([]key, 0, len(ents))
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, windowExt) {
			continue
		}
		tier, index, err := ParseWindowID(strings.TrimSuffix(name, windowExt))
		if err != nil {
			continue // foreign file; not ours to interpret
		}
		keys = append(keys, key{tier, index})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tier != keys[j].tier {
			return keys[i].tier < keys[j].tier
		}
		return keys[i].index < keys[j].index
	})
	ids := make([]string, len(keys))
	for i, k := range keys {
		ids[i] = WindowID(k.tier, k.index)
	}
	return ids, nil
}

// Load reads and decodes one window by ID.
func (w *Warehouse) Load(id string) (*Window, error) {
	if _, _, err := ParseWindowID(id); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(filepath.Join(w.dir, id+windowExt))
	if err != nil {
		return nil, fmt.Errorf("gwp: %w", err)
	}
	win, err := DecodeWindow(blob)
	if err != nil {
		return nil, fmt.Errorf("gwp: window %s: %w", id, err)
	}
	if win.Meta.ID != id {
		return nil, fmt.Errorf("gwp: file %s holds window %s", id, win.Meta.ID)
	}
	return win, nil
}
