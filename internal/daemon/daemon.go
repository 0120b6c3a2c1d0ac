// Package daemon is the long-lived fleet observability control plane:
// a checkpointed fleet of simulated machines runs indefinitely under
// continuous diurnal traffic while the daemon advances virtual time in
// fixed ticks, folds every machine's telemetry into streaming mergeable
// quantile sketches and a bounded ring of per-tick series snapshots,
// watches its own canonical exports for regressions with the
// internal/profdiff threshold logic, and serves the live /metricsz,
// /heapz, /pageheapz, /tracez, /healthz, /statusz, /alertz pages plus a
// POST-only admin API (pause, resume, checkpoint, fault injection).
//
// Everything the daemon retains per tick is bounded — the sketches are
// fixed-size, the series ring overwrites its oldest snapshot, the alert
// ring is capped — so a multi-hour virtual-time run holds constant
// memory. Every simulation step is deterministic: machines advance in
// parallel but each worker touches only its own machine, and the
// reduce folds registries in enrolment order, so exports are
// byte-identical at any Workers setting and a run resumed from a
// checkpoint continues bit-identically (the PR 2/PR 6 contracts).
package daemon

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/gwp"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/sched"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/stats"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/workload"
)

// horizonNs is the virtual-time horizon handed to every driver: far
// enough out that the daemon halts each tick at its own deadline, never
// the driver's.
const horizonNs = int64(1) << 60

// churnSalt decorrelates the per-machine churn stream from the
// workload's own RNG streams (which are derived from the same seed).
const churnSalt = 0x5eedc0dedaeb01d

// Config parameterizes a daemon. Start from DefaultConfig and override;
// the zero value is not runnable.
type Config struct {
	// Machines is the fleet catalog size; SampleFraction of it (floored
	// at MinMachines) is enrolled, stride-sampled like a fleet A/B.
	Machines       int
	SampleFraction float64
	MinMachines    int
	// Seed derives every machine's workload, churn and platform streams.
	Seed uint64
	// AllocConfig is the allocator design under observation; Design is
	// its canonical design-point string, stamped on every export.
	AllocConfig core.Config
	Design      string
	// TickNs is the virtual time simulated per tick; DiurnalPeriodNs is
	// the thread-dynamics period driving the load curve.
	TickNs          int64
	DiurnalPeriodNs int64
	// Workers bounds the parallel machine advance (0 = all cores).
	Workers int
	// ChurnPerTick is the per-machine probability of a cold restart at
	// each tick boundary; RestartOnOOM cold-restarts a machine whose
	// allocation failed instead of dropping ops, capped per tick by
	// maxOOMRestartsPerTick.
	ChurnPerTick float64
	RestartOnOOM bool
	// Observe enables the whole observability pipeline (telemetry,
	// sketches, ring, watchdog, exports). Off, the daemon only advances
	// the simulation — the baseline the benchgate overhead gate
	// compares against.
	Observe bool
	// HeapProfile attaches the sampled heap profiler to machine 0,
	// whose live profile backs /heapz.
	HeapProfile bool
	// TraceCapacity sizes machine 0's event ring behind /tracez
	// (0 disables).
	TraceCapacity int
	// RingCapacity bounds the per-tick series ring.
	RingCapacity int
	// Watchdog configures the regression watchdog; AlertLog appends one
	// JSON alert per line; WebhookURL receives each alert as a POST
	// (best-effort, asynchronous).
	Watchdog   WatchdogConfig
	AlertLog   string
	WebhookURL string
	// Rollout configures the staged design-point rollout controller
	// behind POST /admin/rollout (see rollout.go). Zero fields take
	// DefaultRolloutConfig values.
	Rollout RolloutConfig
	// GWP configures continuous fleet profiling: every
	// GWP.CollectEveryTicks ticks a rotating ~1% sample of the enrolled
	// machines is profiled into one warehouse window. Requires Observe.
	GWP gwp.Config
	// CheckpointDir enables checkpointing; CheckpointEveryTicks is the
	// automatic cadence (0 = only on admin request); Resume restores
	// from an existing checkpoint in CheckpointDir at New.
	CheckpointDir        string
	CheckpointEveryTicks int
	Resume               bool
	// TickWall paces Run's loop in wall-clock time (0 = free-running).
	TickWall time.Duration
	// MaxTicks stops Run after this many ticks (0 = run until Quit).
	MaxTicks int64
}

// The daemon's fixed limits: at most maxOOMRestartsPerTick OOM cold
// restarts per machine per tick, /alertz retains the newest
// alertRingCapacity alerts, and the machine-0 deep views (/heapz,
// /pageheapz, /tracez) refresh at most every introspectEveryTicks
// ticks. Rendering those views means sorting the heap-profile sites and
// walking the pageheap, so they also refresh only when a deep view was
// scraped since the last render: an unwatched daemon renders them once
// at startup and never again.
const (
	maxOOMRestartsPerTick = 4
	alertRingCapacity     = 256
	introspectEveryTicks  = 8
)

// DefaultConfig returns a runnable daemon configuration: a small
// enrolled fleet under diurnal churn with the full observability
// pipeline on.
func DefaultConfig(seed uint64) Config {
	return Config{
		Machines:        64,
		SampleFraction:  0.25,
		MinMachines:     4,
		Seed:            seed,
		AllocConfig:     core.OptimizedConfig(),
		Design:          "optimized",
		TickNs:          2_000_000,  // 2ms virtual per tick
		DiurnalPeriodNs: 16_000_000, // 16ms diurnal period
		ChurnPerTick:    0.002,
		Observe:         true,
		HeapProfile:     true,
		TraceCapacity:   2048,
		RingCapacity:    256,
		Watchdog:        DefaultWatchdogConfig(),
		Rollout:         DefaultRolloutConfig(),
	}
}

// sketchNames fixes the streaming-sketch set and its order — the order
// is part of the checkpoint format and of the byte-determinism
// contract.
var sketchNames = []string{
	"machine_tick_ops",         // per-machine ops completed in one tick
	"machine_malloc_ns_per_op", // per-machine mean malloc cost over one tick
	"machine_heap_bytes",       // per-machine mapped heap at tick end
	"machine_frag_ppm",         // per-machine fragmentation ratio, ppm
	"machine_hugepage_ppm",     // per-machine hugepage coverage, ppm
}

// member is one enrolled machine: its runtime, advanced tick by tick,
// plus the daemon's kill-policy and tick-delta state.
type member struct {
	rt    *machine.Runtime
	churn *rng.RNG

	started bool
	stalled bool // hit the per-tick OOM-restart cap this tick

	// Cumulative driver counters after the last tick, for per-tick
	// deltas.
	prevOps      int64
	prevMallocNs float64

	// Per-tick observations filled by the worker, read by the reduce.
	tickOps      int64
	tickMallocNs float64
	lastStats    core.Stats
}

// Daemon is the live control plane. All simulation state is owned by
// the tick loop; HTTP handlers only read the published snapshot under
// mu.
type Daemon struct {
	cfg      Config
	machines []*member

	tick      int64
	virtualNs int64

	// gw is the open profile warehouse (nil when GWP is disabled);
	// lastWindow is the ID of the most recently collected window — the
	// exemplar stamped on gauges, alerts and /statusz.
	gw         *gwp.Warehouse
	lastWindow string

	sketches []*stats.Sketch
	ring     *telemetry.SeriesRing
	wd       *watchdog
	alertSeq int64
	alerts   *alertRing
	alertLog *os.File

	burstTicks int
	burstFrac  float64

	// Staged rollout controller state (rollout.go): ro is the in-flight
	// rollout (nil = none), activeDesign the last promoted candidate,
	// rolloutBusy the synchronous overlap rejection for the admin API.
	ro                 *rollout
	activeDesign       string
	rolloutsPromoted   int64
	rolloutsRolledBack int64
	rolloutBusy        atomic.Bool

	// enc is the checkpoint encoder, reset for every blob so its storage
	// is reused across machines and checkpoints.
	enc snapshot.Encoder
	// The last checkpoint's tick and its wall time and bytes written;
	// the wall time and bytes are host cost, kept out of every export.
	lastCheckpointTick  int64
	lastCheckpointMs    float64
	lastCheckpointBytes int64

	started time.Time

	// introspectWanted is set by the deep-view handlers (/heapz,
	// /pageheapz, /tracez) and consumed by publishTick: the views are
	// re-rendered on the next introspection tick only if someone read
	// them since the last render, so an unwatched daemon pays nothing
	// for them.
	introspectWanted atomic.Bool

	// Admin surface: handlers set these; the tick loop consumes them.
	paused        atomic.Bool
	forceCkpt     atomic.Bool
	quitOnce      sync.Once
	quitCh        chan struct{}
	adminMu       sync.Mutex
	pendingInject struct {
		ticks int
		frac  float64
	}
	pendingRollout string

	mu  sync.RWMutex
	pub published
}

// published is everything the HTTP pages serve, rebuilt at the end of
// every tick so scrapes never touch live simulation state.
type published struct {
	snap        telemetry.Snapshot
	sketches    []telemetry.SketchValue
	heapz       []heapprof.Profile
	pageheap    core.PageHeapZ
	hasPageheap bool
	trace       telemetry.TraceDump
	status      Status
}

// Status is the /statusz document.
type Status struct {
	Service            string  `json:"service"`
	UptimeSec          float64 `json:"uptime_sec"`
	Tick               int64   `json:"tick"`
	VirtualNs          int64   `json:"virtual_ns"`
	VirtualSec         float64 `json:"virtual_sec"`
	Design             string  `json:"design"`
	Machines           int     `json:"machines"`
	MachinesStalled    int     `json:"machines_stalled"`
	Restarts           int64   `json:"restarts"`
	ChurnKills         int64   `json:"churn_kills"`
	OOMKills           int64   `json:"oom_kills"`
	BurstKills         int64   `json:"burst_kills"`
	Paused             bool    `json:"paused"`
	BurstTicksLeft     int     `json:"burst_ticks_left"`
	LastCheckpointTick int64   `json:"last_checkpoint_tick"`
	CheckpointLagTicks int64   `json:"checkpoint_lag_ticks"`
	AlertsTotal        int64   `json:"alerts_total"`
	AlertsActive       int     `json:"alerts_active"`
	SeriesRetained     int     `json:"series_retained"`
	SeriesTotal        int64   `json:"series_total"`
	SeriesDropped      int64   `json:"series_dropped"`
	GWPEnabled         bool    `json:"gwp_enabled,omitempty"`
	GWPWindowsTotal    int64   `json:"gwp_windows_total,omitempty"`
	GWPLastWindow      string  `json:"gwp_last_window,omitempty"`
	// ActiveDesign is the design point in force fleet-wide (the last
	// promoted rollout candidate, or Design before any promotion); the
	// Rollout* fields mirror the in-flight staged rollout, if any.
	ActiveDesign       string  `json:"active_design"`
	RolloutActive      bool    `json:"rollout_active"`
	RolloutDesign      string  `json:"rollout_design,omitempty"`
	RolloutPrior       string  `json:"rollout_prior,omitempty"`
	RolloutStage       string  `json:"rollout_stage,omitempty"`
	RolloutStageFrac   float64 `json:"rollout_stage_frac,omitempty"`
	RolloutMachines    int     `json:"rollout_machines,omitempty"`
	RolloutsPromoted   int64   `json:"rollouts_promoted"`
	RolloutsRolledBack int64   `json:"rollouts_rolled_back"`

	// LastCheckpointMs and LastCheckpointBytes are the last checkpoint's
	// wall time and the bytes it wrote in this process (0 before its
	// first); like UptimeSec they measure the host, not the simulation.
	LastCheckpointMs    float64 `json:"last_checkpoint_ms"`
	LastCheckpointBytes int64   `json:"last_checkpoint_bytes"`

	Sketches []telemetry.SketchValue `json:"sketches,omitempty"`
}

// New builds a daemon: the fleet catalog from the seed, the enrolled
// machines with persistent drivers, and the observability pipeline.
// With cfg.Resume and an existing checkpoint in cfg.CheckpointDir, the
// daemon restores tick position, every machine, the sketches, the ring
// and the watchdog, and continues bit-identically.
func New(cfg Config) (*Daemon, error) {
	if cfg.Machines <= 0 || cfg.TickNs <= 0 {
		return nil, fmt.Errorf("daemon: config needs Machines > 0 and TickNs > 0 (start from DefaultConfig)")
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 256
	}
	if cfg.DiurnalPeriodNs <= 0 {
		cfg.DiurnalPeriodNs = 8 * cfg.TickNs
	}
	cfg.Rollout = cfg.Rollout.withDefaults()
	if cfg.GWP.Enabled {
		if !cfg.Observe {
			return nil, fmt.Errorf("daemon: GWP collection requires Observe")
		}
		if cfg.GWP.Dir == "" {
			return nil, fmt.Errorf("daemon: GWP collection needs a warehouse directory")
		}
		cfg.GWP = cfg.GWP.WithDefaults()
	}

	// Enrolment stride-samples the catalog like a fleet A/B, so daemon
	// populations are comparable with experiment populations.
	cat := fleet.New(cfg.Machines, cfg.Seed)
	n := min(max(int(float64(cfg.Machines)*cfg.SampleFraction), cfg.MinMachines), cfg.Machines)
	idx := fleet.StrideIndices(cfg.Machines, max(n, 1))
	d := &Daemon{
		cfg:     cfg,
		ring:    telemetry.NewSeriesRing(cfg.RingCapacity),
		wd:      newWatchdog(cfg.Watchdog),
		alerts:  newAlertRing(alertRingCapacity),
		quitCh:  make(chan struct{}),
		started: time.Now(),
	}
	d.sketches = make([]*stats.Sketch, len(sketchNames))
	for i := range d.sketches {
		d.sketches[i] = stats.NewDefaultSketch()
	}
	for ord, i := range idx {
		m := cat.Machines[i]
		acfg := cfg.AllocConfig
		if cfg.Observe {
			acfg.Telemetry = telemetry.Config{Enabled: true}
			if cfg.GWP.Enabled {
				// Continuous profiling samples a rotating subset of
				// machines, so every machine carries the sparse profiler
				// (the per-op cost when not sampled is one countdown).
				acfg.HeapProfile = heapprof.Config{
					Enabled:             true,
					Seed:                m.Seed,
					SampleIntervalBytes: cfg.GWP.SampleIntervalBytes,
				}
			}
			if ord == 0 {
				acfg.Telemetry.TraceCapacity = cfg.TraceCapacity
				if cfg.HeapProfile && !acfg.HeapProfile.Enabled {
					// Sample sparsely: one daemon tick compresses minutes
					// of machine traffic, so the production 512 KiB mean
					// interval would sample a large share of operations
					// and dominate the machine's CPU (peak recaptures
					// condense the whole live table on every new
					// high-water mark). 8 MiB keeps /heapz statistically
					// dense while bounding profiling overhead.
					acfg.HeapProfile = heapprof.Config{
						Enabled:             true,
						Seed:                m.Seed,
						SampleIntervalBytes: 8 << 20,
					}
				}
			}
		}
		opts := workload.DefaultOptions(m.Seed)
		opts.Duration = horizonNs
		opts.DynamicsPeriodNs = cfg.DiurnalPeriodNs
		opts.HaltOnAllocFailure = cfg.RestartOnOOM
		d.machines = append(d.machines, &member{
			rt:    machine.New(m, acfg, opts),
			churn: rng.New(m.Seed ^ cfg.Seed ^ churnSalt),
		})
	}
	if len(d.machines) == 0 {
		return nil, fmt.Errorf("daemon: enrolment selected no machines")
	}

	if cfg.Resume && cfg.CheckpointDir != "" {
		if err := d.restore(); err != nil {
			return nil, err
		}
	}
	if cfg.GWP.Enabled {
		// After any restore: the warehouse resume check and the derived
		// last-window exemplar both depend on the restored tick.
		if err := d.openWarehouse(); err != nil {
			return nil, err
		}
	}
	if cfg.AlertLog != "" {
		f, err := os.OpenFile(cfg.AlertLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("daemon: alert log: %w", err)
		}
		d.alertLog = f
	}
	d.publish() // pages serve a coherent (empty) document before tick 1
	return d, nil
}

// Close releases the alert log. The simulation itself needs no
// teardown.
func (d *Daemon) Close() error {
	if d.alertLog != nil {
		return d.alertLog.Close()
	}
	return nil
}

// Tick advances the whole fleet by one virtual tick: admin commands are
// drained, machines advance in parallel (restarting on churn, burst or
// OOM), and the observability reduce folds every registry in enrolment
// order, feeds the sketches, appends to the series ring, runs the
// watchdog, and publishes the new canonical state.
func (d *Daemon) Tick() error {
	d.drainAdmin()

	// A fault burst stride-selects the machines it restarts (every one at
	// frac >= 1), the same deterministic sampling enrolment uses.
	burstSet := map[int]bool{}
	if d.burstTicks > 0 {
		total := len(d.machines)
		n := min(int(math.Ceil(float64(total)*d.burstFrac)), total)
		for _, i := range fleet.StrideIndices(total, max(n, 1)) {
			burstSet[i] = true
		}
		d.burstTicks--
	}

	tickEnd := d.virtualNs + d.cfg.TickNs
	err := sched.Map(context.Background(), len(d.machines), d.cfg.Workers, func(i int) error {
		d.machines[i].advance(tickEnd, d.cfg, burstSet[i])
		return nil
	})
	if err != nil {
		return err
	}
	d.tick++
	d.virtualNs = tickEnd

	// Collect before the reduce so this tick's gauges and alerts carry
	// the window they were produced alongside.
	if d.gw != nil && d.tick%int64(d.cfg.GWP.CollectEveryTicks) == 0 {
		if err := d.collectWindow(); err != nil {
			return err
		}
	}
	if d.cfg.Observe {
		d.reduce()
	}
	return nil
}

// advance runs one machine to tickEnd, applying churn/burst cold
// restarts at the tick boundary and OOM restarts mid-tick. Only this
// machine's state is touched, which is what keeps the parallel advance
// deterministic.
func (ms *member) advance(tickEnd int64, cfg Config, burst bool) {
	kill := false
	if cfg.ChurnPerTick > 0 && ms.started {
		// The draw happens every tick regardless of outcome so the
		// churn stream's position depends only on the tick number.
		kill = ms.churn.Float64() < cfg.ChurnPerTick
	}
	switch {
	case burst && ms.started:
		ms.rt.RestartCold(machine.Burst)
	case kill:
		ms.rt.RestartCold(machine.Churn)
	}

	// Past the per-tick OOM cap the machine is thrashing: the rest of the
	// tick stays unsimulated and the machine resumes next tick.
	res, capped := ms.rt.RunUntil(tickEnd, maxOOMRestartsPerTick)
	ms.stalled = capped
	ms.started = true

	ms.tickOps = res.Ops - ms.prevOps
	ms.tickMallocNs = res.MallocNs - ms.prevMallocNs
	ms.prevOps = res.Ops
	ms.prevMallocNs = res.MallocNs
	ms.lastStats = ms.rt.Alloc().Stats()
}

// reduce folds every machine into the tick's canonical fleet registry
// (enrolment order — the determinism contract), streams the per-machine
// observations into the sketches, appends the snapshot to the series
// ring, runs the watchdog, and publishes.
func (d *Daemon) reduce() {
	fleetReg := telemetry.NewRegistry()
	var kills machine.Counters
	stalled := 0
	for _, ms := range d.machines {
		ms.rt.FoldTelemetry(fleetReg)
		st := ms.lastStats
		var perOp float64
		if ms.tickOps > 0 {
			perOp = ms.tickMallocNs / float64(ms.tickOps)
		}
		d.sketches[0].Add(float64(ms.tickOps))
		d.sketches[1].Add(perOp)
		d.sketches[2].Add(float64(st.HeapBytes))
		d.sketches[3].Add(st.FragmentationRatio() * 1e6)
		d.sketches[4].Add(st.HugepageCoverage * 1e6)

		kills.Add(ms.rt.Counters())
		if ms.stalled {
			stalled++
		}
	}

	skVals := make([]telemetry.SketchValue, len(d.sketches))
	for i, sk := range d.sketches {
		skVals[i] = telemetry.SnapshotSketch(sketchNames[i], sk)
	}

	g := func(name string, v int64) { fleetReg.Gauge(name).Set(v) }
	g("daemon_tick", d.tick)
	g("daemon_virtual_ns", d.virtualNs)
	g("daemon_machines", int64(len(d.machines)))
	g("daemon_machines_stalled", int64(stalled))
	g("daemon_restarts", kills.Restarts)
	g("daemon_churn_kills", kills.ChurnKills)
	g("daemon_oom_kills", kills.OOMKills)
	g("daemon_burst_kills", kills.BurstKills)
	g("daemon_burst_ticks_left", int64(d.burstTicks))
	g("rollouts_promoted", d.rolloutsPromoted)
	g("rollouts_rolled_back", d.rolloutsRolledBack)
	if d.ro != nil {
		g("rollout_active", 1)
		g("rollout_stage", int64(d.ro.stage+1))
		g("rollout_machines", int64(d.ro.members))
	} else {
		g("rollout_active", 0)
	}
	if d.gw != nil {
		// Exemplar gauges: the warehouse window behind this scrape. The
		// full ID is reconstructible as raw-%08d from the index (gauges
		// are numeric); /statusz and alerts carry the ID string itself.
		g("gwp_windows_total", d.gw.WindowsTotal())
		g("gwp_last_window_index", d.gw.WindowsTotal()-1)
	}
	for _, sv := range skVals {
		g("sketch_"+sv.Name+"_count", int64(sv.Count))
		g("sketch_"+sv.Name+"_p50", int64(math.Round(sv.P50)))
		g("sketch_"+sv.Name+"_p90", int64(math.Round(sv.P90)))
		g("sketch_"+sv.Name+"_p99", int64(math.Round(sv.P99)))
	}

	snap := fleetReg.Snapshot("fleet", d.virtualNs)
	snap.Design = d.effectiveDesign()
	d.ring.Append(snap)

	bare := snap
	bare.Label, bare.Design = "", ""
	alerts := d.wd.observe(d.tick, d.virtualNs, bare)
	for i := range alerts {
		d.alertSeq++
		alerts[i].Seq = d.alertSeq
		// The exemplar: an alert links to the profile window that covers
		// the regressing ticks, so the evidence is one gwpquery away.
		alerts[i].WindowID = d.lastWindow
		d.emitAlert(alerts[i])
	}

	// The rollout controller observes after the watchdog: a regression
	// raised this very tick triggers the rollback immediately, and any
	// stage swap it performs lands before the next tick's advance.
	d.rolloutStep(alerts)

	// A promotion or rollback this tick changed the fleet-wide design;
	// re-stamp the snapshot so /metricsz and /statusz agree.
	snap.Design = d.effectiveDesign()
	d.publishTick(snap, skVals, stalled, kills)
}

// publishTick rebuilds the page-visible state at the end of a tick.
func (d *Daemon) publishTick(snap telemetry.Snapshot, skVals []telemetry.SketchValue,
	stalled int, kills machine.Counters) {
	pub := published{snap: snap, sketches: skVals}

	// The deep views are expensive to render (sorting heap-profile
	// sites, walking the pageheap, dumping the trace ring), so they
	// refresh at the introspection cadence and only while watched: the
	// initial publish always renders, after that only if a deep-view
	// page was scraped since the last render.
	if d.tick%introspectEveryTicks == 0 &&
		(d.tick == 0 || d.introspectWanted.Swap(false)) {
		a0 := d.machines[0].rt.Alloc()
		if d.cfg.HeapProfile {
			pub.heapz = a0.HeapProfiles("fleet")
		}
		pub.pageheap = a0.PageHeapZ()
		pub.hasPageheap = true
		if tel := a0.Telemetry(); tel != nil && tel.Tracer() != nil {
			pub.trace = tel.Tracer().Dump()
		}
	} else {
		d.mu.RLock()
		pub.heapz = d.pub.heapz
		pub.pageheap = d.pub.pageheap
		pub.hasPageheap = d.pub.hasPageheap
		pub.trace = d.pub.trace
		d.mu.RUnlock()
	}

	pub.status = Status{
		Service:            "fleet-daemon",
		UptimeSec:          time.Since(d.started).Seconds(),
		Tick:               d.tick,
		VirtualNs:          d.virtualNs,
		VirtualSec:         float64(d.virtualNs) / 1e9,
		Design:             d.cfg.Design,
		Machines:           len(d.machines),
		MachinesStalled:    stalled,
		Restarts:           kills.Restarts,
		ChurnKills:         kills.ChurnKills,
		OOMKills:           kills.OOMKills,
		BurstKills:         kills.BurstKills,
		Paused:             d.paused.Load(),
		BurstTicksLeft:     d.burstTicks,
		LastCheckpointTick: d.lastCheckpointTick,
		CheckpointLagTicks: d.tick - d.lastCheckpointTick,
		AlertsTotal:        d.alertSeq,
		AlertsActive:       d.wd.activeCount(),
		SeriesRetained:     d.ring.Len(),
		SeriesTotal:        d.ring.Total(),
		SeriesDropped:      d.ring.Dropped(),
		Sketches:           skVals,
	}
	if d.gw != nil {
		pub.status.GWPEnabled = true
		pub.status.GWPWindowsTotal = d.gw.WindowsTotal()
		pub.status.GWPLastWindow = d.lastWindow
	}
	pub.status.LastCheckpointMs = d.lastCheckpointMs
	pub.status.LastCheckpointBytes = d.lastCheckpointBytes
	pub.status.ActiveDesign = d.effectiveDesign()
	pub.status.RolloutsPromoted = d.rolloutsPromoted
	pub.status.RolloutsRolledBack = d.rolloutsRolledBack
	if ro := d.ro; ro != nil {
		pub.status.RolloutActive = true
		pub.status.RolloutDesign = ro.design
		pub.status.RolloutPrior = ro.prior
		pub.status.RolloutStage = d.stageLabel(ro)
		pub.status.RolloutStageFrac = d.cfg.Rollout.StageFracs[ro.stage]
		pub.status.RolloutMachines = ro.members
	}

	d.mu.Lock()
	d.pub = pub
	d.mu.Unlock()
}

// publish installs the pre-first-tick empty document.
func (d *Daemon) publish() {
	d.publishTick(telemetry.Snapshot{Label: "fleet", Design: d.cfg.Design}, nil, 0, machine.Counters{})
}

// drainAdmin applies pending admin commands at a tick boundary, the
// only point the tick loop mutates shared daemon state.
func (d *Daemon) drainAdmin() {
	d.adminMu.Lock()
	if d.pendingInject.ticks > 0 {
		d.burstTicks = d.pendingInject.ticks
		d.burstFrac = d.pendingInject.frac
		d.pendingInject.ticks = 0
	}
	pendingRollout := d.pendingRollout
	d.pendingRollout = ""
	d.adminMu.Unlock()
	if pendingRollout != "" {
		// Installed outside adminMu: beginRollout swaps machines and
		// emits an alert, neither of which needs the admin lock.
		d.beginRollout(pendingRollout)
	}
}

// Inject schedules a fault burst: for the next ticks ticks, frac of the
// enrolled machines are cold-restarted at every tick boundary. The
// resulting cold-cache miss storm is the watchdog demo's regression.
func (d *Daemon) Inject(ticks int, frac float64) {
	if ticks <= 0 {
		return
	}
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	d.adminMu.Lock()
	d.pendingInject.ticks = ticks
	d.pendingInject.frac = frac
	d.adminMu.Unlock()
}

// Pause suspends the tick loop (ticks already in flight finish).
func (d *Daemon) Pause() { d.paused.Store(true) }

// Resume lifts a pause.
func (d *Daemon) Resume() { d.paused.Store(false) }

// RequestCheckpoint asks the run loop to checkpoint at the next tick
// boundary.
func (d *Daemon) RequestCheckpoint() { d.forceCkpt.Store(true) }

// Quit asks the run loop to exit after the current tick (idempotent).
func (d *Daemon) Quit() { d.quitOnce.Do(func() { close(d.quitCh) }) }

// Status returns the latest published /statusz document.
func (d *Daemon) Status() Status {
	d.mu.RLock()
	defer d.mu.RUnlock()
	st := d.pub.status
	st.UptimeSec = time.Since(d.started).Seconds()
	st.Paused = d.paused.Load()
	return st
}

// Run drives the tick loop until Quit, context cancellation, or a tick
// error, honouring pause, forced checkpoints, the automatic checkpoint
// cadence and wall-clock pacing.
func (d *Daemon) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-d.quitCh:
			return d.maybeCheckpoint()
		default:
		}
		if d.forceCkpt.CompareAndSwap(true, false) {
			if err := d.maybeCheckpoint(); err != nil {
				return err
			}
		}
		if d.paused.Load() {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-d.quitCh:
				return d.maybeCheckpoint()
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		if err := d.Tick(); err != nil {
			return err
		}
		if d.cfg.MaxTicks > 0 && d.tick >= d.cfg.MaxTicks {
			return d.maybeCheckpoint()
		}
		every := d.cfg.CheckpointEveryTicks
		if every > 0 && d.tick%int64(every) == 0 {
			if err := d.maybeCheckpoint(); err != nil {
				return err
			}
		}
		if d.cfg.TickWall > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-d.quitCh:
				return d.maybeCheckpoint()
			case <-time.After(d.cfg.TickWall):
			}
		}
	}
}

// maybeCheckpoint checkpoints when a directory is configured.
func (d *Daemon) maybeCheckpoint() error {
	if d.cfg.CheckpointDir == "" {
		return nil
	}
	return d.Checkpoint()
}
