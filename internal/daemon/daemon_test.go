package daemon

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/telemetry"
)

// testConfig is a small but fully-featured daemon: enough machines for
// a real reduce, churn on, full observability.
func testConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Machines = 16
	cfg.SampleFraction = 0.5
	cfg.MinMachines = 4
	cfg.AllocConfig = core.BaselineConfig()
	cfg.Design = "baseline"
	cfg.TickNs = 1_000_000 // 1ms ticks keep the test fast
	cfg.DiurnalPeriodNs = 8_000_000
	cfg.ChurnPerTick = 0.01
	cfg.RingCapacity = 32
	return cfg
}

// fingerprintExport renders everything the determinism contract covers:
// the canonical Prometheus export, every sketch's encoded bytes, and
// the series ring's encoded bytes.
func fingerprintExport(t *testing.T, d *Daemon) string {
	t.Helper()
	var sb strings.Builder
	d.mu.RLock()
	snap := d.pub.snap
	d.mu.RUnlock()
	if err := telemetry.WritePrometheus(&sb, snap); err != nil {
		t.Fatal(err)
	}
	for _, sk := range d.sketches {
		var e snapshot.Encoder
		sk.EncodeState(&e)
		sb.Write(e.Finish())
	}
	var e snapshot.Encoder
	d.ring.EncodeState(&e)
	sb.Write(e.Finish())
	return sb.String()
}

func runTicks(t *testing.T, d *Daemon, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := d.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
	}
}

// TestTickAdvancesFleet sanity-checks the tick loop: virtual time
// moves, machines do work, the canonical export carries both the
// allocator metrics and the daemon gauges.
func TestTickAdvancesFleet(t *testing.T) {
	d, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 5)

	st := d.Status()
	if st.Tick != 5 {
		t.Errorf("tick = %d, want 5", st.Tick)
	}
	if st.VirtualNs != 5_000_000 {
		t.Errorf("virtual ns = %d, want 5ms", st.VirtualNs)
	}
	if st.Machines != 8 {
		t.Errorf("machines = %d, want 8", st.Machines)
	}
	if st.SeriesRetained != 5 || st.SeriesTotal != 5 {
		t.Errorf("series retained/total = %d/%d, want 5/5", st.SeriesRetained, st.SeriesTotal)
	}
	if len(st.Sketches) != len(sketchNames) {
		t.Fatalf("sketches = %d, want %d", len(st.Sketches), len(sketchNames))
	}
	if ops := st.Sketches[0]; ops.Count != float64(5*st.Machines) || ops.P50 <= 0 {
		t.Errorf("tick-ops sketch: count=%g p50=%g, want count=%d and p50>0", ops.Count, ops.P50, 5*st.Machines)
	}

	d.mu.RLock()
	snap := d.pub.snap
	d.mu.RUnlock()
	want := map[string]bool{}
	for _, g := range snap.Gauges {
		want[g.Name] = true
	}
	for _, name := range []string{"heap_bytes", "daemon_tick", "daemon_machines", "sketch_machine_heap_bytes_p50"} {
		if !want[name] {
			t.Errorf("export missing gauge %q", name)
		}
	}
	var mallocs int64
	for _, g := range snap.Gauges {
		if g.Name == "mallocs" {
			mallocs = g.Value
		}
	}
	if mallocs <= 0 {
		t.Errorf("fleet mallocs = %d, want > 0", mallocs)
	}
}

// TestDeterministicAcrossWorkers pins the -j contract: the canonical
// export, sketch bytes and ring bytes after N ticks are identical at
// Workers 1 and 4, including under churn and a mid-run fault burst.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for i, workers := range []int{1, 4} {
		cfg := testConfig(t, 7)
		cfg.Workers = workers
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runTicks(t, d, 6)
		d.Inject(2, 0.5)
		runTicks(t, d, 6)
		got := fingerprintExport(t, d)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("Workers=%d export diverges from Workers=1", workers)
		}
		d.Close()
	}
}

// TestCheckpointResumeBitIdentical pins the crash-tolerance contract:
// run A straight through; run B checkpoints halfway, is discarded, and
// a resumed daemon finishes — the exports must match byte for byte.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfgA := testConfig(t, 11)
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	runTicks(t, a, 10)
	want := fingerprintExport(t, a)

	dir := t.TempDir()
	cfgB := testConfig(t, 11)
	cfgB.CheckpointDir = dir
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, b, 5)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	cfgC := testConfig(t, 11)
	cfgC.CheckpointDir = dir
	cfgC.Resume = true
	c, err := New(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Status(); st.Tick != 5 {
		t.Fatalf("resumed at tick %d, want 5", st.Tick)
	}
	runTicks(t, c, 5)
	if got := fingerprintExport(t, c); got != want {
		t.Fatal("resumed export diverges from uninterrupted run")
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint from one run must not
// restore into a differently-shaped daemon.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 3)
	cfg.CheckpointDir = dir
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, d, 2)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	bad := testConfig(t, 4) // different seed → different fingerprint
	bad.CheckpointDir = dir
	bad.Resume = true
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("mismatched resume error = %v, want fingerprint rejection", err)
	}
}

// TestResumeRejectsOldEpochCheckpoint: a checkpoint directory written at
// an older snapshot version — version 1, the sampling epoch before the
// ziggurat samplers, version 2, the machine-blob layout before the
// shared machine runtime, or version 3, the FNV-1a checksum before the
// CRC pair — must fail to resume with an error naming the version, never
// continue silently onto this build's streams or layout or fail on a
// checksum it cannot read.
func TestResumeRejectsOldEpochCheckpoint(t *testing.T) {
	for _, old := range []uint32{1, 2, 3} {
		dir := t.TempDir()
		cfg := testConfig(t, 3)
		cfg.CheckpointDir = dir
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runTicks(t, d, 2)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		d.Close()

		// Stamp every blob with the old version. The header's version
		// field sits outside the payload checksum, so only the version
		// check can object.
		blobs, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		if err != nil || len(blobs) < 2 {
			t.Fatalf("checkpoint blobs: %v, %v", blobs, err)
		}
		for _, path := range blobs {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(blob[4:8], old)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		cfg.Resume = true
		_, err = New(cfg)
		if err == nil || !strings.Contains(err.Error(), "resume") ||
			!strings.Contains(err.Error(), fmt.Sprintf("version %d, want %d", old, snapshot.Version)) {
			t.Fatalf("resuming a version-%d checkpoint: err = %v, want a version rejection", old, err)
		}
	}
}

// TestCheckpointRefusesCorruptedMachineBlob flips one byte at a time of
// the largest machine blob of a DefaultConfig daemon (2-3 MB) — the
// first and last payload bytes and one byte inside every section — and
// requires NewDecoder to refuse each flipped blob on its checksum,
// before any state is read.
func TestCheckpointRefusesCorruptedMachineBlob(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(9)
	cfg.CheckpointDir = dir
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 4)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "m*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > len(blob) {
			blob = b
		}
	}
	const header = 20
	if len(blob) < 2<<20 {
		t.Fatalf("machine blob is %d bytes, want a multi-MB blob", len(blob))
	}
	if _, err := snapshot.NewDecoder(blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}

	// Section starts: a 0xA5 marker, a u32 length and a dotted
	// lower-case tag. A stray match inside a section only adds a flip.
	var starts []int
	var tags []string
	for i := header; i+5 < len(blob); i++ {
		if blob[i] != 0xA5 {
			continue
		}
		n := int(binary.LittleEndian.Uint32(blob[i+1:]))
		if n < 1 || n > 64 || i+5+n > len(blob) {
			continue
		}
		tag := string(blob[i+5 : i+5+n])
		if strings.Trim(tag, "abcdefghijklmnopqrstuvwxyz0123456789._") != "" {
			continue
		}
		starts = append(starts, i)
		tags = append(tags, tag)
	}
	for _, want := range []string{"daemon.machine", "workload.driver", "workload.result", "pageheap"} {
		if !slices.Contains(tags, want) {
			t.Fatalf("section %q not found among %d section markers %v", want, len(tags), tags)
		}
	}

	offsets := []int{header, len(blob) - 1}
	for k, start := range starts {
		end := len(blob)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		offsets = append(offsets, start+(end-start)/2)
	}
	bad := make([]byte, len(blob))
	t.Logf("%d-byte machine blob, %d sections, %d flips", len(blob), len(starts), len(offsets))
	for _, off := range offsets {
		copy(bad, blob)
		bad[off] ^= 0xff
		if _, err := snapshot.NewDecoder(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("byte %d of %d flipped: NewDecoder err = %v, want a checksum refusal", off, len(blob), err)
		}
	}
}

// TestCheckpointAllocatesLittle: a warmed daemon's checkpoint encodes
// every blob into one reused buffer and seals it in place, so a second
// checkpoint allocates far less than it writes (a fresh, doubling
// buffer per blob plus a sealing copy allocates several times as much).
// It also checks the wall time and size the checkpoint reports.
func TestCheckpointAllocatesLittle(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 13)
	cfg.CheckpointDir = dir
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 16)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runTicks(t, d, 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	var onDisk int64
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if d.lastCheckpointBytes != onDisk || d.lastCheckpointMs <= 0 {
		t.Fatalf("checkpoint reports %d bytes in %g ms, directory holds %d bytes",
			d.lastCheckpointBytes, d.lastCheckpointMs, onDisk)
	}
	if allocated > uint64(onDisk)/4 {
		t.Fatalf("checkpoint allocated %d bytes to write %d (%.2fx), want at most 0.25x",
			allocated, onDisk, float64(allocated)/float64(onDisk))
	}
	t.Logf("checkpoint allocated %d bytes to write %d (%.3fx)", allocated, onDisk, float64(allocated)/float64(onDisk))

	runTicks(t, d, 1)
	if st := d.Status(); st.LastCheckpointTick != 17 || st.LastCheckpointBytes != onDisk || st.LastCheckpointMs <= 0 {
		t.Fatalf("status after checkpoint: tick %d, %d bytes, %g ms; want tick 17, %d bytes",
			st.LastCheckpointTick, st.LastCheckpointBytes, st.LastCheckpointMs, onDisk)
	}
}

// TestResumeRejectsTornCheckpoint: machine blobs are written before the
// manifest, so a crash part-way through a later checkpoint leaves the
// previous manifest beside a mix of older and newer machine blobs. Each
// blob carries its checkpoint's tick, and a resume over such a mix must
// fail naming both ticks instead of silently splicing two generations.
func TestResumeRejectsTornCheckpoint(t *testing.T) {
	first, second := t.TempDir(), t.TempDir()
	cfg := testConfig(t, 3)
	cfg.CheckpointDir = first
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 2)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runTicks(t, d, 2)
	d.cfg.CheckpointDir = second
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The interrupted second checkpoint got as far as machine 1's blob.
	blob, err := os.ReadFile(filepath.Join(second, "m0001.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(first, "m0001.ckpt"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	_, err = New(cfg)
	if err == nil || !strings.Contains(err.Error(), "resume machine") ||
		!strings.Contains(err.Error(), "tick 4") || !strings.Contains(err.Error(), "tick 2") {
		t.Fatalf("resuming a torn checkpoint: err = %v, want a tick-stamp rejection", err)
	}
}

// TestBoundedRetention: a long run retains only RingCapacity series
// snapshots and the sketch bucket count stays under its cap — the
// constant-memory property.
func TestBoundedRetention(t *testing.T) {
	cfg := testConfig(t, 5)
	cfg.Machines = 8
	cfg.SampleFraction = 0.5
	cfg.RingCapacity = 8
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 30)

	st := d.Status()
	if st.SeriesRetained != 8 {
		t.Errorf("series retained = %d, want 8", st.SeriesRetained)
	}
	if st.SeriesTotal != 30 || st.SeriesDropped != 22 {
		t.Errorf("series total/dropped = %d/%d, want 30/22", st.SeriesTotal, st.SeriesDropped)
	}
	for i, sk := range d.sketches {
		if n := sk.BucketCount(); n > 2048 {
			t.Errorf("sketch %s holds %d buckets, cap 2048", sketchNames[i], n)
		}
	}
	series := d.ring.Snapshots()
	if len(series) != 8 {
		t.Fatalf("ring snapshots = %d", len(series))
	}
	if series[0].NowNs != 23_000_000 || series[7].NowNs != 30_000_000 {
		t.Errorf("ring window [%d, %d], want ticks 23..30", series[0].NowNs, series[7].NowNs)
	}
}

// TestCarryKeepsCountersMonotone: cold restarts (a full-fleet burst)
// must not make any cumulative fleet counter go backwards, thanks to
// the carry registry.
func TestCarryKeepsCountersMonotone(t *testing.T) {
	cfg := testConfig(t, 9)
	cfg.ChurnPerTick = 0 // isolate the burst restarts
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	counters := func() map[string]int64 {
		d.mu.RLock()
		defer d.mu.RUnlock()
		out := map[string]int64{}
		for _, c := range d.pub.snap.Counters {
			out[c.Name] = c.Value
		}
		return out
	}
	runTicks(t, d, 4)
	before := counters()
	d.Inject(1, 1.0) // restart every machine
	runTicks(t, d, 2)
	after := counters()
	if d.Status().Restarts == 0 {
		t.Fatal("burst did not restart any machine")
	}
	for name, v := range before {
		if after[name] < v {
			t.Errorf("counter %s went backwards across restart: %d -> %d", name, v, after[name])
		}
	}
	if after["percpu_miss_total"] <= before["percpu_miss_total"] {
		t.Errorf("cold restart should add misses: %d -> %d",
			before["percpu_miss_total"], after["percpu_miss_total"])
	}
}

// TestObserveOffRuns: the bare (telemetry-off) daemon advances the
// simulation without publishing observability state — the benchmark
// baseline.
func TestObserveOffRuns(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Observe = false
	cfg.HeapProfile = false
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 3)
	st := d.Status()
	if st.Tick != 0 { // status is only published by the observe reduce
		t.Errorf("bare daemon published tick %d", st.Tick)
	}
	if d.tick != 3 || d.virtualNs != 3_000_000 {
		t.Errorf("bare daemon advanced to tick %d (%d ns), want 3", d.tick, d.virtualNs)
	}
}

// TestAlertLogWrites: alerts land in the JSONL file.
func TestAlertLogWrites(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "alerts.jsonl")
	cfg := testConfig(t, 21)
	cfg.AlertLog = logPath
	cfg.ChurnPerTick = 0
	cfg.Watchdog.Window = 4
	cfg.Watchdog.Warmup = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, d, 6) // warm the baseline
	d.Inject(2, 1.0)
	runTicks(t, d, 4)
	d.Close()

	blob, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"kind":"regression"`) {
		t.Fatalf("alert log has no regression alert:\n%s", blob)
	}
}
