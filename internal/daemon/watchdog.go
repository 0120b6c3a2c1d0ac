// The regression watchdog: every tick the daemon flattens its own
// canonical export with internal/profdiff and compares each watched
// metric against a sliding median baseline. A relative change beyond
// the configured threshold raises a structured regression alert; when
// the metric stays back inside the threshold for recoveryTicks
// consecutive ticks, a matching recovery alert clears it. The baseline
// window freezes while a metric is alerting so an ongoing incident
// cannot normalize itself into the baseline.
package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"wsmalloc/internal/profdiff"
	"wsmalloc/internal/telemetry"
)

// WatchdogConfig tunes the regression watchdog.
type WatchdogConfig struct {
	// Window is the sliding baseline length in ticks; Warmup is the
	// minimum samples before a metric can alert (0 = Window).
	Window int
	Warmup int
	// RateThreshold is the relative change (vs the median per-tick
	// rate) that fires an alert. A threshold of 1.0 means "2x the
	// baseline".
	RateThreshold float64
	// Rates lists cumulative counters watched as per-tick rates (the
	// flattened metric names of the daemon's own export).
	Rates []string
	// MinRate suppresses rate alerts whose baseline is below this many
	// events per tick — relative change over a near-zero base is noise.
	MinRate float64
}

// recoveryTicks is how many consecutive in-threshold ticks clear an
// alerting metric.
const recoveryTicks = 2

// DefaultWatchdogConfig watches the cache-hierarchy miss rates and the
// OS mapping rate — the signals a fleet-wide cold-restart storm (or a
// real allocator regression) moves first.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		Window:        16,
		RateThreshold: 1.0,
		Rates: []string{
			"percpu_miss_total",
			"transfer_miss_total",
			"cfl_span_create_total",
			"os_mmap_total",
		},
		MinRate: 1,
	}
}

// Alert is one structured watchdog event, appended to the alert log,
// served by /alertz and POSTed to the webhook.
type Alert struct {
	Seq       int64   `json:"seq"`
	Tick      int64   `json:"tick"`
	NowNs     int64   `json:"now_ns"`
	Kind      string  `json:"kind"` // "regression", "recovery", "rollout-stage", "promotion", "rollback"
	Metric    string  `json:"metric"`
	Mode      string  `json:"mode"` // "rate" (watchdog) or "rollout"
	Baseline  float64 `json:"baseline"`
	Current   float64 `json:"current"`
	RelChange float64 `json:"rel_change"`
	Threshold float64 `json:"threshold"`
	// WindowID is the exemplar: the warehouse profile window covering
	// the ticks that produced this alert (empty when gwp is off).
	WindowID string `json:"window_id,omitempty"`
	// Design and Stage are set on rollout lifecycle alerts
	// ("rollout-stage", "promotion", "rollback"): the candidate design
	// point and the stage the event happened in.
	Design string `json:"design,omitempty"`
	Stage  string `json:"stage,omitempty"`
}

// watchdog holds the per-metric sliding windows and alerting states.
// It is only touched by the tick loop, so it needs no locking.
type watchdog struct {
	cfg  WatchdogConfig
	prev profdiff.Metrics     // previous cumulative flatten, for rates
	hist map[string][]float64 // per-metric baseline window
	// alerting maps a metric in regression to its consecutive
	// in-threshold tick count (recovery progress).
	alerting map[string]int
}

func newWatchdog(cfg WatchdogConfig) *watchdog {
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Window
	}
	if cfg.RateThreshold <= 0 {
		cfg.RateThreshold = 1.0
	}
	return &watchdog{
		cfg:      cfg,
		hist:     map[string][]float64{},
		alerting: map[string]int{},
	}
}

// activeCount is how many metrics are currently in regression.
func (w *watchdog) activeCount() int { return len(w.alerting) }

// observe ingests one tick's canonical snapshot and returns the alerts
// it raises (Seq unassigned — the daemon owns the sequence).
func (w *watchdog) observe(tick, nowNs int64, snap telemetry.Snapshot) []Alert {
	flat := profdiff.FlattenSnapshots(snap)

	// Current per-tick rate for every watched metric.
	baseline := profdiff.Metrics{}
	current := profdiff.Metrics{}
	for _, name := range w.cfg.Rates {
		cum, ok := flat[name]
		if !ok {
			continue
		}
		rate := cum - w.prev[name]
		if w.prev == nil {
			// First tick: the whole cumulative value is warm-up noise,
			// not a rate.
			rate = cum
		}
		current[name] = rate
	}
	if w.prev == nil {
		// Seed the cumulative baseline and windows; never alert on the
		// very first tick.
		w.prev = flat
		for name, v := range current {
			w.hist[name] = append(w.hist[name], v)
		}
		return nil
	}
	w.prev = flat

	for name := range current {
		if win := w.hist[name]; len(win) >= w.cfg.Warmup {
			baseline[name] = median(win)
		}
	}

	// profdiff carries the comparison: baseline-vs-current deltas of
	// the warmed metrics, then the threshold filter.
	var alerts []Alert
	var warm []profdiff.Delta
	for _, dl := range profdiff.Diff(baseline, current) {
		if dl.InA && dl.InB {
			warm = append(warm, dl)
		}
	}
	exceeded := map[string]profdiff.Delta{}
	for _, dl := range profdiff.Exceeds(warm, w.cfg.RateThreshold) {
		if dl.A >= w.cfg.MinRate {
			exceeded[dl.Name] = dl
		}
	}

	// Sorted iteration keeps alert order (and therefore Seq assignment)
	// deterministic.
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dl, over := exceeded[name]
		_, active := w.alerting[name]
		base, warmed := baseline[name]
		switch {
		case over && !active:
			w.alerting[name] = 0
			alerts = append(alerts, Alert{
				Tick: tick, NowNs: nowNs, Kind: "regression",
				Metric: name, Mode: "rate",
				Baseline: dl.A, Current: dl.B,
				RelChange: dl.Rel(), Threshold: w.cfg.RateThreshold,
			})
		case active && !over && warmed:
			w.alerting[name]++
			if w.alerting[name] >= recoveryTicks {
				delete(w.alerting, name)
				rel := 0.0
				if base != 0 {
					rel = (current[name] - base) / base
					if rel < 0 {
						rel = -rel
					}
				}
				alerts = append(alerts, Alert{
					Tick: tick, NowNs: nowNs, Kind: "recovery",
					Metric: name, Mode: "rate",
					Baseline: base, Current: current[name],
					RelChange: rel, Threshold: w.cfg.RateThreshold,
				})
			}
		case active && over:
			w.alerting[name] = 0 // regression persists; reset recovery progress
		}
		if _, stillAlerting := w.alerting[name]; !stillAlerting {
			// Only healthy ticks feed the baseline, so an incident
			// cannot normalize itself into it.
			win := append(w.hist[name], current[name])
			if len(win) > w.cfg.Window {
				win = win[len(win)-w.cfg.Window:]
			}
			w.hist[name] = win
		}
	}
	return alerts
}

// median of a non-empty window.
func median(win []float64) float64 {
	s := append([]float64(nil), win...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// alertRing retains the most recent alerts for /alertz, with the same
// overwrite-oldest loss accounting the series ring uses.
type alertRing struct {
	mu      sync.Mutex
	buf     []Alert
	next    int
	full    bool
	total   int64
	dropped int64
}

func newAlertRing(capacity int) *alertRing {
	return &alertRing{buf: make([]Alert, capacity)}
}

func (r *alertRing) append(a Alert) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = a
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// AlertDump is the /alertz document.
type AlertDump struct {
	Alerts  []Alert `json:"alerts"`
	Total   int64   `json:"total"`
	Dropped int64   `json:"dropped"`
	Active  int     `json:"active"`
}

// dump returns retained alerts oldest-first.
func (r *alertRing) dump() AlertDump {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Alert
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[:r.next]...)
	}
	return AlertDump{Alerts: out, Total: r.total, Dropped: r.dropped}
}

// restore rebuilds ring state from a checkpointed dump.
func (r *alertRing) restore(d AlertDump) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(d.Alerts)
	if n > len(r.buf) {
		d.Alerts = d.Alerts[n-len(r.buf):]
		n = len(r.buf)
	}
	copy(r.buf, d.Alerts)
	r.next = n % len(r.buf)
	r.full = n == len(r.buf)
	r.total = d.Total
	r.dropped = d.Dropped
}

// emitAlert fans one alert out to the ring, the JSONL log and the
// webhook.
func (d *Daemon) emitAlert(a Alert) {
	d.alerts.append(a)
	if d.alertLog != nil {
		if blob, err := json.Marshal(a); err == nil {
			_, _ = d.alertLog.Write(append(blob, '\n'))
		}
	}
	if d.cfg.WebhookURL != "" {
		blob, err := json.Marshal(a)
		if err == nil {
			go postWebhook(d.cfg.WebhookURL, blob)
		}
	}
}

// postWebhook delivers one alert, best-effort: a dead or slow endpoint
// must never stall or fail the tick loop.
func postWebhook(url string, blob []byte) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
	if err == nil {
		resp.Body.Close()
	}
}

// Alerts returns the retained alert window.
func (d *Daemon) Alerts() AlertDump {
	dump := d.alerts.dump()
	dump.Active = d.wdActive()
	return dump
}

// wdActive reads the published active-alert count (the watchdog itself
// belongs to the tick loop).
func (d *Daemon) wdActive() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pub.status.AlertsActive
}
