package workload

import (
	"fmt"
	"math"

	"wsmalloc/internal/check"
	"wsmalloc/internal/core"
	"wsmalloc/internal/rng"
)

// Options control a workload run.
type Options struct {
	// Duration is the virtual run length in ns.
	Duration int64
	// Seed makes the run reproducible.
	Seed uint64
	// TimeWarpGamma compresses long lifetimes so that hour/day-scale
	// behaviour folds into a sub-second virtual run while preserving the
	// short-lifetime structure: lifetimes below timeWarpCutoffNs are
	// kept, longer ones become cutoff*(life/cutoff)^gamma.
	TimeWarpGamma float64
	// DynamicsPeriodNs overrides the profile's diurnal period so thread
	// fluctuation happens within the run (default Duration/4).
	DynamicsPeriodNs int64
	// Snapshot, when non-nil, is called every SnapshotEveryNs.
	Snapshot        func(now int64)
	SnapshotEveryNs int64
	// AuditEveryNs, when positive, runs the allocator's full invariant
	// auditor (core.CheckInvariants) every AuditEveryNs of virtual time
	// and once more at the end of the run. Violations land in
	// Result.Violations.
	AuditEveryNs int64
	// Checkpoint, when non-nil, is called every CheckpointEveryNs of
	// virtual time, and once more at HaltAtNs if a halt is requested. It
	// fires at the top of the event loop — before the next arrival is
	// drawn — so a driver serialized inside the callback resumes
	// bit-identically to a run that was never interrupted. The callback
	// must not touch the driver's RNG or allocator.
	Checkpoint        func(now int64)
	CheckpointEveryNs int64
	// HaltAtNs, when positive, stops Run at the first loop iteration at
	// or past this virtual time (a simulated kill). A final Checkpoint
	// fires first, so the run can be resumed from exactly the halt
	// point. Resuming callers must clear HaltAtNs (or move it later) in
	// the resumed options, or the run halts again immediately.
	HaltAtNs int64
	// HaltOnAllocFailure stops Run at the first allocation the
	// allocator refuses, instead of dropping the op — the OOM-kill
	// trigger for machine-lifecycle runs. No checkpoint fires: an
	// OOM-killed process loses its heap and is restarted cold (see
	// Driver.Restart).
	HaltOnAllocFailure bool
	// RetuneAtNs and RetuneDesign schedule a live design-point swap: at
	// the first loop iteration at or past RetuneAtNs the allocator is
	// retuned to RetuneDesign via core.ApplyDesign, exactly once per
	// run. The swap fires at the loop top, before the checkpoint and
	// halt checks, so a checkpoint taken at the same virtual tick
	// already contains the swapped state and a kill/resume at the swap
	// point is bit-identical to an uninterrupted swapped run. Zero
	// RetuneAtNs or empty RetuneDesign disables.
	RetuneAtNs   int64
	RetuneDesign string
	// Record, when non-nil, captures every value the run draws from its
	// RNG into the tape (replacing its contents). Replay, when non-nil,
	// takes those values from a tape recorded for the same stream
	// (profile, seed, duration, time warp, diurnal period) instead of
	// drawing them: the allocator still serves every malloc and free,
	// only generation is skipped. A replay stops early at the first
	// malloc its allocator refuses (Tape.Stopped). At most one of the
	// two may be set, and neither combines with Checkpoint, HaltAtNs,
	// HaltOnAllocFailure or Restart: the tape cursor is not serialized.
	Record *Tape
	Replay *Tape
}

// The driver's fixed cadences: the time-warp cutoff below which
// lifetimes are kept, the allocator background-work (Tick) cadence, and
// how often the thread count is re-evaluated.
const (
	timeWarpCutoffNs    = 20 * Millisecond
	tickEveryNs         = Millisecond
	threadUpdateEveryNs = 2 * Millisecond
)

// DefaultOptions returns options suitable for experiment runs.
func DefaultOptions(seed uint64) Options {
	return Options{
		Duration:      200 * Millisecond,
		Seed:          seed,
		TimeWarpGamma: 0.22,
	}
}

// Result summarizes a run.
type Result struct {
	// Ops is the number of allocations performed (frees are equal for
	// objects that died in-run).
	Ops int64
	// Frees is the number of frees performed.
	Frees int64
	// MallocNs is the total modeled allocator time.
	MallocNs float64
	// TotalCPUNs is the implied application CPU time, derived from the
	// profile's malloc fraction: malloc cycles are MallocFraction of all
	// cycles (Fig. 5a).
	TotalCPUNs float64
	// AllocatedBytes accumulates requested bytes.
	AllocatedBytes int64
	// Duration is the virtual run length.
	Duration int64
	// ThreadSeries samples the active thread count every
	// threadUpdateEveryNs (Fig. 9a).
	ThreadSeries []int
	// Stats is the allocator snapshot at the end of the run (before any
	// teardown).
	Stats core.Stats
	// AllocFailures counts allocations the allocator refused (OOM under
	// fault injection even after its drain-and-retry paths). Failed
	// allocations are dropped: the workload carries on without the
	// object, which is the graceful-degradation behaviour chaos runs
	// assert.
	AllocFailures int64
	// Audits is the number of invariant audits performed (see
	// Options.AuditEveryNs).
	Audits int64
	// Violations holds the outcome of the most recent audit. Structural
	// violations are recomputed per audit; shadow-heap violations
	// accumulate over the run, so the final audit subsumes earlier ones.
	Violations []check.Violation
}

// OpsPerSecond is the workload-visible operation rate.
func (r Result) OpsPerSecond() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.Duration) / 1e9)
}

// object tracks one live allocation.
type object struct {
	addr uint64
	size int
}

// Driver runs a profile against an allocator. All run-position state
// lives in fields (not Run locals) so a driver can be serialized at a
// checkpoint and resumed, or rebound to a fresh allocator after a
// simulated OOM kill, without losing its place in the workload.
type Driver struct {
	profile Profile
	alloc   *core.Allocator
	opts    Options
	r       *rng.RNG
	dyn     ThreadDynamics
	// rec and play are Options.Record and Options.Replay: each draw site
	// samples (appending to rec) unless play supplies the value.
	rec, play *Tape

	now     int64
	threads int
	// Hot-loop caches, derived (never serialized): gapNs is
	// MeanAllocGapNs/threads, refreshed by setThreads; cpuSet is the
	// clamped CPU-set width, refreshed when the allocator binds; warp is
	// the options' time warp, which lifetimes are drawn through.
	gapNs  float64
	cpuSet int
	warp   rng.Warp
	// wheel schedules every object allocated in-run by death bucket;
	// its free order is part of the determinism contract.
	wheel     *deathWheel
	liveCount int64
	preloaded []object

	started    bool
	halted     bool
	haltReason HaltReason
	// retuned records that the scheduled design swap fired; serialized,
	// so a resumed run neither re-fires nor misses it.
	retuned bool

	nextThreadUpdate int64
	nextTick         int64
	nextSnapshot     int64
	nextAudit        int64
	nextCheckpoint   int64

	res Result
}

// NewDriver prepares a run.
func NewDriver(p Profile, a *core.Allocator, opts Options) *Driver {
	if opts.Duration <= 0 {
		panic("workload: non-positive duration")
	}
	if opts.DynamicsPeriodNs == 0 {
		opts.DynamicsPeriodNs = opts.Duration / 4
	}
	if opts.TimeWarpGamma == 0 {
		opts.TimeWarpGamma = 0.22
	}
	// Heap-profile samples are attributed to synthetic call-sites keyed
	// by the workload name; the driver owns the allocator for the run.
	if hp := a.HeapProfiler(); hp != nil {
		hp.SetWorkload(p.Name)
	}
	dyn := p.Threads
	dyn.PeriodNs = opts.DynamicsPeriodNs
	d := &Driver{
		profile: p,
		alloc:   a,
		opts:    opts,
		r:       rng.New(opts.Seed),
		dyn:     dyn,
		warp:    rng.NewWarp(float64(timeWarpCutoffNs), opts.TimeWarpGamma),
		rec:     opts.Record,
		play:    opts.Replay,
		wheel:   newDeathWheel(),
	}
	if d.rec != nil && d.play != nil {
		panic("workload: Options.Record and Options.Replay are exclusive")
	}
	if opts.Checkpoint != nil || opts.HaltAtNs > 0 || opts.HaltOnAllocFailure {
		d.rejectTape("checkpoint or halt")
	}
	if d.rec != nil {
		d.rec.startRecording(keyOf(p, opts), expectedArrivals(p, opts))
	} else if d.play != nil {
		d.play.startReplay(keyOf(p, opts))
	}
	d.refreshCPUSet()
	return d
}

// The draw sites: each returns the next value of one tape column,
// sampling it from the RNG (and recording it) unless a replay tape
// supplies it. A live run pays two predictable branches per site.

// drawThreads evaluates the thread count at virtual time now.
func (d *Driver) drawThreads(now int64) int {
	if d.play != nil {
		return int(d.play.threads.next())
	}
	n := d.dyn.Count(d.r, now)
	if d.rec != nil {
		d.rec.threads.put(int32(n))
	}
	return n
}

// drawPreloadSize samples a preload block size.
func (d *Driver) drawPreloadSize(dist rng.Dist) int {
	if d.play != nil {
		return int(d.play.preSize.next())
	}
	size := int(dist.Sample(d.r))
	if size < 1 {
		size = 1
	}
	if d.rec != nil {
		d.rec.preSize.put(int64(size))
	}
	return size
}

// drawPreloadThread picks a preload block's thread uniformly.
func (d *Driver) drawPreloadThread() int {
	if d.play != nil {
		return int(d.play.preThread.next())
	}
	th := d.r.Intn(d.threads)
	if d.rec != nil {
		d.rec.preThread.put(int32(th))
	}
	return th
}

// drawGap samples the next arrival gap: exponential with rate
// threads/MeanAllocGapNs, at least 1 ns.
func (d *Driver) drawGap() int64 {
	if d.play != nil {
		return d.play.gap.next()
	}
	dt := int64(d.gapNs * d.r.ExpFloat64())
	if dt < 1 {
		dt = 1
	}
	if d.rec != nil {
		d.rec.gap.put(dt)
	}
	return dt
}

// drawSize samples an arrival's requested size.
func (d *Driver) drawSize() int {
	if d.play != nil {
		return int(d.play.size.next())
	}
	size := int(d.profile.SizeDist.Sample(d.r))
	if size < 1 {
		size = 1
	}
	if d.rec != nil {
		d.rec.size.put(int64(size))
	}
	return size
}

// drawMallocThread picks the thread issuing an arrival.
func (d *Driver) drawMallocThread() int {
	if d.play != nil {
		return int(d.play.thread.next())
	}
	th := d.pickThread()
	if d.rec != nil {
		d.rec.thread.put(int32(th))
	}
	return th
}

// drawLifetime samples an allocated object's warped lifetime.
func (d *Driver) drawLifetime(size int) int64 {
	if d.play != nil {
		return d.play.life.next()
	}
	life := d.profile.Lifetime.SampleWarped(d.r, size, d.warp)
	if life < 1 {
		life = 1
	}
	if d.rec != nil {
		d.rec.life.put(life)
	}
	return life
}

// drawFreeThread picks the thread freeing a dying object.
func (d *Driver) drawFreeThread() int {
	if d.play != nil {
		return int(d.play.free.next())
	}
	th := d.pickThread()
	if d.rec != nil {
		d.rec.free.put(int32(th))
	}
	return th
}

// stopReplay ends a replayed run at a refused malloc: the recording
// drew on past this point as if the malloc had succeeded, so the rest of
// the tape no longer describes this run. The Result so far is partial.
func (d *Driver) stopReplay() Result {
	d.play.stopped = true
	d.halted = true
	d.haltReason = HaltReplayRefused
	return d.res
}

// setThreads updates the active thread count and the derived per-thread
// arrival gap (the same division the event loop used to repeat per op).
func (d *Driver) setThreads(n int) {
	d.threads = n
	d.gapNs = d.profile.MeanAllocGapNs / float64(n)
}

// refreshCPUSet recomputes the clamped CPU-set width; call whenever the
// allocator binding changes (construction, Restart).
func (d *Driver) refreshCPUSet() {
	set := d.profile.CPUSet
	if max := d.alloc.Topology().NumCPUs(); set > max {
		set = max
	}
	if set < 1 {
		set = 1
	}
	d.cpuSet = set
}

// pickThread selects the worker issuing the next operation. Thread pools
// hand work to recently-idle workers first (LIFO), so low-index threads
// carry more traffic — the source of the per-vCPU usage bias in Fig. 9b.
func (d *Driver) pickThread() int {
	u := d.r.Float64()
	return int(u * u * float64(d.threads))
}

// cpuForThread maps a worker thread to a physical CPU within the
// application's CPU set (cached by refreshCPUSet; the modulo is skipped
// when the thread index already fits).
func (d *Driver) cpuForThread(thread int) int {
	if thread < d.cpuSet {
		return thread
	}
	return thread % d.cpuSet
}

// preload builds the profile's resident heap before the measured window.
func (d *Driver) preload() {
	dist := d.profile.PreloadDist
	if dist == nil {
		dist = DefaultPreloadDist()
	}
	var total int64
	consecutiveFailures := 0
	for total < d.profile.PreloadBytes {
		size := d.drawPreloadSize(dist)
		cpu := d.cpuForThread(d.drawPreloadThread())
		addr, _, err := d.alloc.TryMalloc(size, cpu)
		if err != nil {
			// Under an injected mapped-byte budget the resident heap may
			// simply not fit; preloading retries past transient mmap
			// failures but gives up once the allocator is firmly out of
			// memory (nothing is freed during preload).
			d.res.AllocFailures++
			if d.play != nil {
				d.stopReplay()
				return
			}
			if consecutiveFailures++; consecutiveFailures >= 8 {
				return
			}
			continue
		}
		consecutiveFailures = 0
		d.preloaded = append(d.preloaded, object{addr, size})
		total += int64(size)
	}
}

// Run executes the workload and returns the result. A driver restored
// from a checkpoint (or one that halted) continues from where it left
// off: initialization runs only on the first call.
func (d *Driver) Run() Result {
	p := d.profile
	if !d.started {
		d.setThreads(d.drawThreads(0))
		d.res.ThreadSeries = append(d.res.ThreadSeries, d.threads)
		d.preload()
		if d.halted {
			return d.res
		}

		d.nextThreadUpdate = threadUpdateEveryNs
		d.nextTick = tickEveryNs
		d.nextSnapshot = math.MaxInt64
		if d.opts.Snapshot != nil && d.opts.SnapshotEveryNs > 0 {
			d.nextSnapshot = d.opts.SnapshotEveryNs
		}
		d.nextAudit = math.MaxInt64
		if d.opts.AuditEveryNs > 0 {
			d.nextAudit = d.opts.AuditEveryNs
		}
		d.nextCheckpoint = math.MaxInt64
		if d.opts.Checkpoint != nil && d.opts.CheckpointEveryNs > 0 {
			d.nextCheckpoint = d.opts.CheckpointEveryNs
		}
		d.started = true
	}
	d.halted = false
	d.haltReason = HaltNone
	// A resumed run may enable checkpointing that the original run did
	// not have (or drop it — the gate below checks the live options).
	if d.opts.Checkpoint != nil && d.opts.CheckpointEveryNs > 0 &&
		d.nextCheckpoint == math.MaxInt64 {
		d.nextCheckpoint = d.now + d.opts.CheckpointEveryNs
	}

	for d.now < d.opts.Duration {
		// A scheduled design swap fires first: the checkpoint (and the
		// halt checkpoint) taken at this same iteration must capture the
		// swapped allocator, so resume lands after the swap.
		if !d.retuned && d.opts.RetuneDesign != "" && d.opts.RetuneAtNs > 0 &&
			d.now >= d.opts.RetuneAtNs {
			d.retuned = true
			if err := d.alloc.ApplyDesign(d.opts.RetuneDesign); err != nil {
				panic(fmt.Sprintf("workload: retune to %q: %v", d.opts.RetuneDesign, err))
			}
		}
		// The loop top is the resume point: no event is in flight, so a
		// checkpoint taken here captures the run completely. The cursor
		// advances before the callback so the serialized driver does not
		// re-fire this checkpoint on resume.
		if d.opts.Checkpoint != nil && d.opts.CheckpointEveryNs > 0 &&
			d.now >= d.nextCheckpoint {
			d.nextCheckpoint += d.opts.CheckpointEveryNs
			d.opts.Checkpoint(d.now)
		}
		if d.opts.HaltAtNs > 0 && d.now >= d.opts.HaltAtNs {
			if d.opts.Checkpoint != nil {
				d.opts.Checkpoint(d.now)
			}
			d.halted = true
			d.haltReason = HaltTimer
			return d.res
		}

		d.now += d.drawGap()

		d.processDeaths(d.now)

		if d.now >= d.nextTick {
			d.alloc.Tick(d.now)
			d.nextTick += tickEveryNs
		}
		if d.now >= d.nextThreadUpdate {
			d.setThreads(d.drawThreads(d.now))
			d.res.ThreadSeries = append(d.res.ThreadSeries, d.threads)
			d.nextThreadUpdate += threadUpdateEveryNs
		}
		if d.now >= d.nextSnapshot {
			d.opts.Snapshot(d.now)
			d.nextSnapshot += d.opts.SnapshotEveryNs
		}
		if d.now >= d.nextAudit {
			d.audit()
			d.nextAudit += d.opts.AuditEveryNs
		}
		if d.now >= d.opts.Duration {
			break
		}

		size := d.drawSize()
		cpu := d.cpuForThread(d.drawMallocThread())
		addr, cost, err := d.alloc.TryMalloc(size, cpu)
		d.res.MallocNs += cost
		if err != nil {
			d.res.AllocFailures++
			if d.play != nil {
				return d.stopReplay()
			}
			if d.opts.HaltOnAllocFailure {
				// The process is OOM-killed mid-allocation; the caller
				// restarts it against a fresh allocator (Restart).
				d.halted = true
				d.haltReason = HaltAllocFailure
				return d.res
			}
			// Degrade gracefully: the op is dropped and the workload
			// proceeds. Frees keep running, so memory pressure can clear.
			continue
		}
		d.res.Ops++
		d.res.AllocatedBytes += int64(size)
		d.liveCount++

		die := d.now + d.drawLifetime(size)
		d.wheel.insert(die/deathBucketNs, object{addr, size})
	}

	if d.opts.AuditEveryNs > 0 {
		d.audit()
	}
	if d.rec != nil {
		d.rec.replayable = d.res.AllocFailures == 0
	}
	if d.play != nil {
		d.play.checkConsumed()
	}
	d.res.Duration = d.opts.Duration
	d.res.Stats = d.alloc.Stats()
	if p.MallocFraction > 0 {
		d.res.TotalCPUNs = d.res.MallocNs / p.MallocFraction
	}
	return d.res
}

// HaltReason says why the last Run call stopped early.
type HaltReason uint8

const (
	// HaltNone: the run completed (or has not halted yet).
	HaltNone HaltReason = iota
	// HaltTimer: the run reached Options.HaltAtNs (a scheduled kill).
	HaltTimer
	// HaltAllocFailure: the allocator refused an allocation with
	// Options.HaltOnAllocFailure set (a simulated OOM kill).
	HaltAllocFailure
	// HaltReplayRefused: the allocator refused a malloc during a replay
	// (see Options.Replay); the run cannot continue from the tape.
	HaltReplayRefused
)

// Halted reports whether the last Run call stopped early — at HaltAtNs
// or on a refused allocation — rather than completing the workload.
func (d *Driver) Halted() bool { return d.halted }

// HaltReason distinguishes a scheduled kill from an OOM kill.
func (d *Driver) HaltReason() HaltReason { return d.haltReason }

// SetHaltAt reschedules (or, with 0, cancels) the run's halt time —
// how a lifecycle caller clears a churn kill after restarting the
// machine, so the resumed Run doesn't halt again immediately.
func (d *Driver) SetHaltAt(ns int64) {
	if ns > 0 {
		d.rejectTape("halt")
	}
	d.opts.HaltAtNs = ns
}

// rejectTape panics when a taped driver is asked to leave its single
// uninterrupted run.
func (d *Driver) rejectTape(op string) {
	if d.rec != nil || d.play != nil {
		panic("workload: a taped run cannot " + op + " (the tape cursor is not serialized)")
	}
}

// Now returns the driver's virtual-time position.
func (d *Driver) Now() int64 { return d.now }

// Restart rebinds a halted driver to a freshly constructed allocator,
// modeling an OOM-kill/re-exec cycle: every live object and every
// cached span died with the old process, but the workload keeps its
// position — RNG cursor, virtual clock, thread count, result counters
// and schedule cursors all survive. Like a real restarted process, it
// rebuilds its resident heap before serving traffic again; the death
// wheel is cleared because the objects it tracked no longer exist.
func (d *Driver) Restart(a *core.Allocator) {
	d.rejectTape("restart")
	d.alloc = a
	d.refreshCPUSet()
	if hp := a.HeapProfiler(); hp != nil {
		hp.SetWorkload(d.profile.Name)
	}
	d.wheel.drain(func([]object) {})
	d.liveCount = 0
	d.preloaded = nil
	d.halted = false
	d.haltReason = HaltNone
	if d.retuned && d.opts.RetuneDesign != "" {
		// The design swap already happened fleet-side; a restarted
		// process comes back up under the design in force, not the
		// construction-time one.
		if err := a.ApplyDesign(d.opts.RetuneDesign); err != nil {
			panic(fmt.Sprintf("workload: retune to %q on restart: %v", d.opts.RetuneDesign, err))
		}
	}
	a.Tick(d.now)
	if d.started {
		d.preload()
	}
}

// audit runs the allocator-wide invariant check and records the outcome.
// Each audit replaces Result.Violations: structural checks are recomputed
// from scratch, and shadow-heap violations accumulate inside the
// allocator, so the latest audit is always the most complete.
func (d *Driver) audit() {
	d.res.Audits++
	d.res.Violations = d.alloc.CheckInvariants()
}

// processDeaths frees every object whose death bucket has passed. The
// freeing CPU is a random currently-active thread's CPU, so objects
// regularly die on a different CPU (and LLC domain) than they were
// allocated on — the cross-CPU flow the transfer cache exists for.
func (d *Driver) processDeaths(now int64) {
	d.wheel.advance(now/deathBucketNs, d.freeBucket)
}

// freeBucket frees a run of one death bucket's objects on randomly
// chosen currently-active threads (one RNG draw per object — draw order
// is part of the determinism contract).
func (d *Driver) freeBucket(objs []object) {
	for _, o := range objs {
		cpu := d.cpuForThread(d.drawFreeThread())
		cost := d.alloc.Free(o.addr, o.size, cpu)
		d.res.Frees++
		d.res.MallocNs += cost
		d.liveCount--
	}
}

// DrainRemaining frees every object still scheduled in the wheel, in
// death-bucket order, plus the preloaded resident heap (used for
// teardown accounting in tests).
func (d *Driver) DrainRemaining() {
	d.wheel.drain(func(objs []object) {
		for _, o := range objs {
			d.alloc.Free(o.addr, o.size, 0)
			d.liveCount--
		}
	})
	for _, o := range d.preloaded {
		d.alloc.Free(o.addr, o.size, 0)
	}
	d.preloaded = nil
	if d.liveCount != 0 {
		panic("workload: live-object accounting mismatch")
	}
}

// LiveObjects returns the number of objects the driver still holds.
func (d *Driver) LiveObjects() int64 { return d.liveCount }

// Run is a convenience wrapper: build a driver and run it.
func Run(p Profile, a *core.Allocator, opts Options) Result {
	return NewDriver(p, a, opts).Run()
}
