package daemon

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"wsmalloc/internal/gwp"
	"wsmalloc/internal/heapprof"
)

// gwpConfig is testConfig with continuous profiling on: short windows,
// a large sample so every window has several machines.
func gwpConfig(t *testing.T, seed uint64, dir string) Config {
	cfg := testConfig(t, seed)
	cfg.GWP.Enabled = true
	cfg.GWP.Dir = dir
	cfg.GWP.CollectEveryTicks = 4
	cfg.GWP.SampleFraction = 0.5
	cfg.GWP.MinPerWindow = 2
	cfg.GWP.Retention = gwp.Retention{RawRetain: 16, RawPerHourly: 4, HourlyRetain: 8, HourlyPerDaily: 2, DailyRetain: 8}
	return cfg
}

// warehouseBytes maps file name → content for a warehouse directory.
func warehouseBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string][]byte{}
	for _, ent := range ents {
		blob, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[ent.Name()] = blob
	}
	return m
}

func sameWarehouse(t *testing.T, label string, a, b map[string][]byte) {
	t.Helper()
	for name, blob := range a {
		if other, ok := b[name]; !ok {
			t.Errorf("%s: file %s missing", label, name)
		} else if !bytes.Equal(blob, other) {
			t.Errorf("%s: file %s differs", label, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			t.Errorf("%s: extra file %s", label, name)
		}
	}
}

// TestGWPCollects sanity-checks the collection loop: windows land at
// the configured cadence, carry the sampled machines' profiles and
// scalars, and the exemplar surfaces (status, gauges) point at them.
func TestGWPCollects(t *testing.T) {
	dir := t.TempDir()
	d, err := New(gwpConfig(t, 1, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 12) // 3 windows at every-4-ticks

	st := d.Status()
	if !st.GWPEnabled || st.GWPWindowsTotal != 3 {
		t.Fatalf("status gwp = %v/%d, want enabled with 3 windows", st.GWPEnabled, st.GWPWindowsTotal)
	}
	if st.GWPLastWindow != "raw-00000002" {
		t.Errorf("last window = %q", st.GWPLastWindow)
	}

	w, err := gwp.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	win, err := w.Load("raw-00000002")
	if err != nil {
		t.Fatal(err)
	}
	if win.Meta.StartTick != 9 || win.Meta.EndTick != 12 {
		t.Errorf("window span [%d,%d], want [9,12]", win.Meta.StartTick, win.Meta.EndTick)
	}
	if win.Meta.Machines < 2 {
		t.Errorf("window machines = %d, want >= 2", win.Meta.Machines)
	}
	if len(win.Records) != win.Meta.Machines {
		t.Errorf("records = %d, machines = %d", len(win.Records), win.Meta.Machines)
	}
	views := map[string]bool{}
	for _, p := range win.Profiles {
		views[p.View] = true
	}
	for _, v := range []string{heapprof.ViewHeapz, heapprof.ViewAllocz, heapprof.ViewPeakheapz} {
		if !views[v] {
			t.Errorf("window missing %s view", v)
		}
	}
	for _, r := range win.Records {
		if r.TickOps <= 0 || r.HeapBytes <= 0 {
			t.Errorf("record ord %d: ops=%d heap=%d", r.Ord, r.TickOps, r.HeapBytes)
		}
	}

	// Exemplar gauges in the canonical export.
	d.mu.RLock()
	snap := d.pub.snap
	d.mu.RUnlock()
	gauges := map[string]int64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["gwp_windows_total"] != 3 {
		t.Errorf("gwp_windows_total gauge = %d", gauges["gwp_windows_total"])
	}
	if gauges["gwp_last_window_index"] != 2 {
		t.Errorf("gwp_last_window_index gauge = %d", gauges["gwp_last_window_index"])
	}
}

// TestGWPDeterministicAcrossWorkers extends the -j contract to the
// warehouse: every file on disk is byte-identical at Workers 1 and 4.
func TestGWPDeterministicAcrossWorkers(t *testing.T) {
	var want map[string][]byte
	var wantExport string
	for i, workers := range []int{1, 4} {
		dir := t.TempDir()
		cfg := gwpConfig(t, 7, dir)
		cfg.Workers = workers
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runTicks(t, d, 16)
		export := fingerprintExport(t, d)
		d.Close()
		got := warehouseBytes(t, dir)
		if i == 0 {
			want, wantExport = got, export
		} else {
			sameWarehouse(t, "workers", want, got)
			if export != wantExport {
				t.Error("export diverges across workers with gwp on")
			}
		}
	}
}

// TestGWPKillResumeBitIdentical is the tentpole contract: a daemon
// checkpointed mid-window, killed and resumed produces a warehouse
// byte-identical to the uninterrupted run's.
func TestGWPKillResumeBitIdentical(t *testing.T) {
	// Uninterrupted: 16 ticks → 4 windows.
	dirA := t.TempDir()
	a, err := New(gwpConfig(t, 11, dirA))
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, a, 16)
	wantExport := fingerprintExport(t, a)
	a.Close()

	// Interrupted: checkpoint at tick 6 — mid-window (6 % 4 != 0), after
	// window raw-0 landed but before raw-1.
	dirB := t.TempDir()
	ckDir := t.TempDir()
	cfgB := gwpConfig(t, 11, dirB)
	cfgB.CheckpointDir = ckDir
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, b, 6)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	cfgC := gwpConfig(t, 11, dirB)
	cfgC.CheckpointDir = ckDir
	cfgC.Resume = true
	c, err := New(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Status(); st.Tick != 6 || st.GWPLastWindow != "raw-00000000" {
		t.Fatalf("resumed at tick %d, last window %q", st.Tick, st.GWPLastWindow)
	}
	runTicks(t, c, 10)
	if got := fingerprintExport(t, c); got != wantExport {
		t.Error("resumed export diverges with gwp on")
	}
	sameWarehouse(t, "kill/resume", warehouseBytes(t, dirA), warehouseBytes(t, dirB))
}

// TestGWPResumeReplaysWindow: checkpoint cadence and window cadence
// interleave so the resumed run replays an already-appended window
// (checkpoint at tick 6, window raw-1 lands at tick 8, process dies at
// 9; resume re-runs ticks 7..8 and re-appends raw-1). The replay must
// be invisible.
func TestGWPResumeReplaysWindow(t *testing.T) {
	dirA := t.TempDir()
	a, err := New(gwpConfig(t, 13, dirA))
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, a, 12)
	a.Close()

	dirB := t.TempDir()
	ckDir := t.TempDir()
	cfgB := gwpConfig(t, 13, dirB)
	cfgB.CheckpointDir = ckDir
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, b, 6)
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runTicks(t, b, 3) // window raw-1 lands at tick 8; tick 9 state dies with the process
	b.Close()

	cfgC := gwpConfig(t, 13, dirB)
	cfgC.CheckpointDir = ckDir
	cfgC.Resume = true
	c, err := New(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runTicks(t, c, 6) // ticks 7..12: replays raw-1, appends raw-2
	sameWarehouse(t, "replay", warehouseBytes(t, dirA), warehouseBytes(t, dirB))
}

// TestGWPResumeRejectsChangedGeometry: the warehouse fingerprint covers
// the collection geometry, so resuming with a different window length
// must fail instead of silently mixing cadences.
func TestGWPResumeRejectsChangedGeometry(t *testing.T) {
	dir := t.TempDir()
	ckDir := t.TempDir()
	cfg := gwpConfig(t, 3, dir)
	cfg.CheckpointDir = ckDir
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, d, 4)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	bad := gwpConfig(t, 3, dir)
	bad.CheckpointDir = ckDir
	bad.Resume = true
	bad.GWP.CollectEveryTicks = 8
	if _, err := New(bad); err == nil {
		t.Fatal("resume with changed gwp geometry accepted")
	}
}

// TestGWPRequiresObserve: gwp needs the observability pipeline.
func TestGWPRequiresObserve(t *testing.T) {
	cfg := gwpConfig(t, 1, t.TempDir())
	cfg.Observe = false
	if _, err := New(cfg); err == nil {
		t.Fatal("gwp without Observe accepted")
	}
	cfg = gwpConfig(t, 1, "")
	cfg.GWP.Dir = ""
	if _, err := New(cfg); err == nil {
		t.Fatal("gwp without a warehouse dir accepted")
	}
}

// TestGWPAlertsCarryWindowID: watchdog alerts fired after a collection
// reference the window in flight when the regression was observed.
func TestGWPAlertsCarryWindowID(t *testing.T) {
	dir := t.TempDir()
	cfg := gwpConfig(t, 9, dir)
	cfg.Watchdog.Window = 4
	cfg.Watchdog.RateThreshold = 0.5
	cfg.Watchdog.MinRate = 0.01
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 8) // warm up past the first window
	d.Inject(4, 1.0)  // fault burst → restart-rate alert
	runTicks(t, d, 8)

	dump := d.Alerts()
	if len(dump.Alerts) == 0 {
		t.Skip("fault burst produced no alert at this seed")
	}
	sawWindow := false
	for _, a := range dump.Alerts {
		if a.WindowID != "" {
			sawWindow = true
			if _, _, err := gwp.ParseWindowID(a.WindowID); err != nil {
				t.Errorf("alert window id %q: %v", a.WindowID, err)
			}
		}
	}
	if !sawWindow {
		t.Error("no alert carried a warehouse window id")
	}
}
