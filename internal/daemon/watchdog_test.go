package daemon

import (
	"testing"

	"wsmalloc/internal/telemetry"
)

// wdSnap builds a synthetic canonical snapshot carrying one watched
// cumulative counter.
func wdSnap(cum int64) telemetry.Snapshot {
	return telemetry.Snapshot{
		Counters: []telemetry.MetricValue{{Name: "percpu_miss_total", Value: cum}},
	}
}

// feed advances the watchdog one tick with the given cumulative value
// and returns the alerts raised.
func feed(w *watchdog, tick int64, cum int64) []Alert {
	return w.observe(tick, tick*1_000_000, wdSnap(cum))
}

func newTestWatchdog(window int) *watchdog {
	cfg := DefaultWatchdogConfig()
	cfg.Window = window
	cfg.Warmup = window
	cfg.Rates = []string{"percpu_miss_total"}
	return newWatchdog(cfg)
}

// TestWatchdogFiresOnRateSpike: a steady 100 events/tick baseline, then
// a 5x spike → one regression alert, and only one while it persists.
func TestWatchdogFiresOnRateSpike(t *testing.T) {
	w := newTestWatchdog(4)
	cum := int64(0)
	var tick int64
	for i := 0; i < 6; i++ { // tick 1 seeds, 2..6 build the window
		tick++
		cum += 100
		if alerts := feed(w, tick, cum); len(alerts) != 0 {
			t.Fatalf("tick %d: unexpected alerts %+v", tick, alerts)
		}
	}
	tick++
	cum += 500
	alerts := feed(w, tick, cum)
	if len(alerts) != 1 {
		t.Fatalf("spike raised %d alerts, want 1: %+v", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Kind != "regression" || a.Metric != "percpu_miss_total" || a.Mode != "rate" {
		t.Errorf("alert = %+v", a)
	}
	if a.Baseline != 100 || a.Current != 500 || a.RelChange != 4 {
		t.Errorf("alert numbers = baseline %g current %g rel %g, want 100/500/4", a.Baseline, a.Current, a.RelChange)
	}
	// Persisting spike: already alerting, no duplicate alert.
	tick++
	cum += 500
	if alerts := feed(w, tick, cum); len(alerts) != 0 {
		t.Errorf("persisting spike re-alerted: %+v", alerts)
	}
	if w.activeCount() != 1 {
		t.Errorf("active = %d, want 1", w.activeCount())
	}
}

// TestWatchdogRecovery: after the spike subsides, recoveryTicks
// consecutive healthy ticks raise exactly one recovery alert.
func TestWatchdogRecovery(t *testing.T) {
	w := newTestWatchdog(4)
	cum := int64(0)
	var tick int64
	step := func(delta int64) []Alert {
		tick++
		cum += delta
		return feed(w, tick, cum)
	}
	for i := 0; i < 6; i++ {
		step(100)
	}
	if alerts := step(500); len(alerts) != 1 || alerts[0].Kind != "regression" {
		t.Fatalf("spike: %+v", alerts)
	}
	if alerts := step(100); len(alerts) != 0 { // healthy tick 1 of 2
		t.Fatalf("first healthy tick alerted: %+v", alerts)
	}
	alerts := step(100) // healthy tick 2 of 2 → recovery
	if len(alerts) != 1 || alerts[0].Kind != "recovery" {
		t.Fatalf("recovery: %+v", alerts)
	}
	if w.activeCount() != 0 {
		t.Errorf("active = %d after recovery", w.activeCount())
	}
	// A later identical spike alerts again — the cycle restarts.
	if alerts := step(500); len(alerts) != 1 || alerts[0].Kind != "regression" {
		t.Fatalf("re-spike: %+v", alerts)
	}
}

// TestWatchdogBaselineFreeze: the incident's own samples must not feed
// the baseline, so a long-running spike still reads against the healthy
// median once it ends.
func TestWatchdogBaselineFreeze(t *testing.T) {
	w := newTestWatchdog(4)
	cum := int64(0)
	var tick int64
	step := func(delta int64) []Alert {
		tick++
		cum += delta
		return feed(w, tick, cum)
	}
	for i := 0; i < 6; i++ {
		step(100)
	}
	step(500) // regression
	for i := 0; i < 10; i++ {
		step(500) // long incident — 10 more spiked ticks
	}
	// If the spike had leaked into the window, the median would now be
	// 500 and these healthy ticks would read as a 5x *drop*; with the
	// freeze they read as a clean recovery.
	step(100)
	alerts := step(100)
	if len(alerts) != 1 || alerts[0].Kind != "recovery" {
		t.Fatalf("post-incident: %+v", alerts)
	}
	if base := alerts[0].Baseline; base != 100 {
		t.Errorf("baseline after frozen incident = %g, want 100", base)
	}
}

// TestWatchdogWarmup: no alerts before the window holds Warmup samples,
// however wild the early values.
func TestWatchdogWarmup(t *testing.T) {
	w := newTestWatchdog(8)
	cum := int64(0)
	deltas := []int64{100, 1, 5000, 3, 900, 10, 700}
	for i, d := range deltas {
		cum += d
		if alerts := feed(w, int64(i+1), cum); len(alerts) != 0 {
			t.Fatalf("warmup tick %d alerted: %+v", i+1, alerts)
		}
	}
}

// TestWatchdogMinRate: relative spikes over a sub-MinRate baseline are
// suppressed as noise.
func TestWatchdogMinRate(t *testing.T) {
	cfg := DefaultWatchdogConfig()
	cfg.Window = 4
	cfg.Warmup = 4
	cfg.Rates = []string{"percpu_miss_total"}
	cfg.MinRate = 10
	w := newWatchdog(cfg)
	cum := int64(0)
	var tick int64
	for i := 0; i < 6; i++ { // baseline: 2 events/tick, below MinRate
		tick++
		cum += 2
		feed(w, tick, cum)
	}
	tick++
	cum += 50 // 25x the baseline — but the baseline is noise
	if alerts := feed(w, tick, cum); len(alerts) != 0 {
		t.Fatalf("sub-MinRate baseline alerted: %+v", alerts)
	}
}

// TestAlertRingOverwrite: the ring keeps the newest alerts and accounts
// for the dropped ones; restore round-trips its state.
func TestAlertRingOverwrite(t *testing.T) {
	r := newAlertRing(4)
	for i := int64(1); i <= 10; i++ {
		r.append(Alert{Seq: i})
	}
	d := r.dump()
	if len(d.Alerts) != 4 || d.Total != 10 || d.Dropped != 6 {
		t.Fatalf("dump = %d alerts, total %d, dropped %d", len(d.Alerts), d.Total, d.Dropped)
	}
	for i, a := range d.Alerts {
		if want := int64(7 + i); a.Seq != want {
			t.Errorf("alert[%d].Seq = %d, want %d (oldest-first)", i, a.Seq, want)
		}
	}
	r2 := newAlertRing(4)
	r2.restore(d)
	d2 := r2.dump()
	if len(d2.Alerts) != 4 || d2.Alerts[0].Seq != 7 || d2.Alerts[3].Seq != 10 || d2.Total != 10 {
		t.Fatalf("restored dump = %+v", d2)
	}
}
