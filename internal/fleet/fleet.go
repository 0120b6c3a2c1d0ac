// Package fleet models the warehouse-scale deployment the paper evaluates
// on: a fleet of machines spread across heterogeneous platform
// generations running a diverse binary population, the Fig. 3 popularity
// catalog, and the A/B experimentation framework of §2.2 (1% experiment /
// 1% control machine groups, per-application productivity metrics,
// fleet-aggregated deltas).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/perfmodel"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/sched"
	"wsmalloc/internal/stats"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// BinaryCatalog models the fleet's binary population for Fig. 3: the
// malloc-cycle and allocated-memory shares of each binary, Zipf-like with
// exponents chosen so the top 50 binaries cover ~50% of malloc cycles and
// ~65% of allocated memory.
type BinaryCatalog struct {
	// CycleShare[i] is binary i's share of fleet malloc cycles
	// (descending, sums to 1).
	CycleShare []float64
	// MemoryShare[i] is binary i's share of fleet allocated memory.
	MemoryShare []float64
}

// NewBinaryCatalog builds a catalog of n binaries.
func NewBinaryCatalog(n int, seed uint64) BinaryCatalog {
	r := rng.New(seed)
	cycles := zipfWeights(r, n, 0.95, 0.25)
	memory := zipfWeights(r, n, 1.12, 0.25)
	return BinaryCatalog{CycleShare: cycles, MemoryShare: memory}
}

// zipfWeights returns normalized, descending rank weights 1/(i+1)^s with
// multiplicative jitter.
func zipfWeights(r *rng.RNG, n int, s, jitter float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		v := 1 / math.Pow(float64(i+1), s)
		v *= 1 + jitter*r.NormFloat64()
		if v < 0 {
			v = 0
		}
		w[i] = v
		total += v
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(w)))
	for i := range w {
		w[i] /= total
	}
	return w
}

// TopCycleShare returns the share of malloc cycles covered by the top k
// binaries.
func (c BinaryCatalog) TopCycleShare(k int) float64 { return stats.TopShare(c.CycleShare, k) }

// TopMemoryShare returns the share of allocated memory covered by the top
// k binaries.
func (c BinaryCatalog) TopMemoryShare(k int) float64 { return stats.TopShare(c.MemoryShare, k) }

// CDF returns cumulative shares over ranks 1..k for plotting Fig. 3.
func (c BinaryCatalog) CDF(weights []float64, k int) []float64 {
	out := make([]float64, k)
	acc := 0.0
	for i := 0; i < k && i < len(weights); i++ {
		acc += weights[i]
		out[i] = acc
	}
	return out
}

// Machine is one server in the fleet: the descriptor the machine
// runtime simulates.
type Machine = machine.Desc

// Fleet is the machine population.
type Fleet struct {
	Machines []Machine
	Catalog  BinaryCatalog
}

// New builds a fleet of n machines: platforms sampled by fleet share,
// applications sampled by profile weight.
func New(n int, seed uint64) *Fleet {
	r := rng.New(seed)
	apps := workload.ProductionProfiles()
	var appWeights []float64
	for _, a := range apps {
		appWeights = append(appWeights, a.FleetWeight)
	}
	appPick := rng.NewDiscrete(indices(len(apps)), appWeights)

	var platWeights []float64
	for _, p := range topology.Catalog {
		platWeights = append(platWeights, p.FleetShare)
	}
	platPick := rng.NewDiscrete(indices(len(topology.Catalog)), platWeights)

	f := &Fleet{Catalog: NewBinaryCatalog(2000, seed^0xfeed)}
	for i := 0; i < n; i++ {
		f.Machines = append(f.Machines, Machine{
			ID:       i,
			Platform: topology.Catalog[int(platPick.Sample(r))],
			App:      apps[int(appPick.Sample(r))],
			Seed:     r.Uint64(),
		})
	}
	return f
}

func indices(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// RunMetrics is the telemetry of one machine run under one configuration.
type RunMetrics struct {
	App string
	// Result is the raw workload outcome.
	Result workload.Result
	// AvgHeapBytes is the time-averaged mapped heap (the RAM metric).
	AvgHeapBytes int64
	// InterDomainShare, Coverage and CacheBytes feed the perf model.
	InterDomainShare float64
	Coverage         float64
	CacheBytes       int64
	// Telemetry is the machine's metrics registry with end-of-run gauges
	// flushed, when the run's config enabled telemetry (nil otherwise).
	Telemetry *telemetry.Registry
	// HeapProfiles holds the machine's end-of-run sampled heap profile
	// views, when the run's config enabled heap profiling (nil otherwise).
	HeapProfiles []heapprof.Profile
	// Frag is the end-of-run Fig. 11 fragmentation decomposition.
	Frag core.FragZ
}

// RunMachine executes one machine's workload under cfg for the given
// virtual duration.
func RunMachine(m Machine, cfg core.Config, duration int64) RunMetrics {
	opts := workload.DefaultOptions(m.Seed)
	opts.Duration = duration
	return RunMachineOpts(m, cfg, opts)
}

// RunMachineOpts executes one machine run with explicit workload options:
// the zero-LifecycleOptions case of RunMachineLifecycle, which cannot
// fail. Time-averaged telemetry comes from periodic snapshots: end-of-run
// snapshots are dominated by wherever the diurnal phase happens to stop.
func RunMachineOpts(m Machine, cfg core.Config, opts workload.Options) RunMetrics {
	rm, _, _, err := RunMachineLifecycle(m, cfg, opts, LifecycleOptions{})
	if err != nil {
		panic(err)
	}
	return rm
}

// Row is one table row of an A/B experiment, matching the columns of the
// paper's Tables 1 and 2.
type Row struct {
	App           string
	Machines      int
	ThroughputPct float64
	MemoryPct     float64
	CPIPct        float64
	LLCBefore     float64
	LLCAfter      float64
	WalkBeforePct float64
	WalkAfterPct  float64
}

func (r Row) String() string {
	return fmt.Sprintf("%-18s thr %+6.2f%%  mem %+6.2f%%  CPI %+6.2f%%  LLC %.2f->%.2f  dTLB %.2f%%->%.2f%%  (n=%d)",
		r.App, r.ThroughputPct, r.MemoryPct, r.CPIPct,
		r.LLCBefore, r.LLCAfter, r.WalkBeforePct, r.WalkAfterPct, r.Machines)
}

// ChaosStats aggregates fault-injection outcomes across every enrolled
// machine run (both arms). A chaos A/B is judged healthy when the fleet
// absorbed injected failures — OOMErrors and AllocFailures may be non-zero
// — while Violations stays zero and every run completes.
type ChaosStats struct {
	// InjectedFailures and BudgetFailures are the OS-level fault counts
	// (random mmap failures and mapped-byte budget rejections).
	InjectedFailures, BudgetFailures int64
	// OOMErrors counts allocations that failed after all retries;
	// AllocFailures is the driver-side view (ops dropped gracefully).
	OOMErrors, AllocFailures int64
	// PressureEvents and PressureReleasedBytes record the pageheap's
	// emergency release-and-retry responses.
	PressureEvents, PressureReleasedBytes int64
	// Audits is the total number of invariant audits run; Violations is
	// the total count of violations those audits reported.
	Audits, Violations int64
	// Lifecycle aggregates machine churn kills, OOM kills, and the cold
	// restarts that followed (zero unless ABOptions enabled churn or
	// OOM-restart lifecycle modeling).
	Lifecycle LifecycleStats
}

// ABTelemetry holds the fleet-aggregated metrics registries of the two
// experiment arms, each the enrolment-order merge of the per-machine
// registries.
type ABTelemetry struct {
	Control    *telemetry.Registry
	Experiment *telemetry.Registry
	// ControlDesign and ExperimentDesign carry the arms' design-point
	// strings (from ABOptions) into the exported snapshots, so sweep
	// output identifies each arm by its full design rather than only by
	// the control/experiment role.
	ControlDesign    string
	ExperimentDesign string
}

// Snapshots renders both arms as labeled, name-sorted snapshots ready for
// the telemetry exporters.
func (t *ABTelemetry) Snapshots(nowNs int64) []telemetry.Snapshot {
	if t == nil {
		return nil
	}
	control := t.Control.Snapshot("control", nowNs)
	control.Design = t.ControlDesign
	experiment := t.Experiment.Snapshot("experiment", nowNs)
	experiment.Design = t.ExperimentDesign
	return []telemetry.Snapshot{control, experiment}
}

// ABHeapProfiles holds the fleet-aggregated sampled heap profile views
// of the two experiment arms, each the enrolment-order merge of the
// per-machine profiles.
type ABHeapProfiles struct {
	Control    []heapprof.Profile
	Experiment []heapprof.Profile
}

// ABFrag holds the per-arm fleet-summed Fig. 11 fragmentation
// decomposition: every machine's end-of-run decomposition accumulated
// in enrolment order.
type ABFrag struct {
	Control    core.FragZ
	Experiment core.FragZ
}

// ABResult is a full experiment outcome.
type ABResult struct {
	// Fleet is the machine-weighted aggregate row.
	Fleet Row
	// PerApp holds one row per application, sorted by name.
	PerApp []Row
	// Chaos aggregates fault-injection and audit outcomes (zero unless
	// ABOptions enabled chaos or auditing).
	Chaos ChaosStats
	// Telemetry is the per-arm fleet-merged metrics registry pair, nil
	// unless ABOptions.Telemetry was enabled.
	Telemetry *ABTelemetry
	// HeapProfiles is the per-arm fleet-merged sampled heap profile pair,
	// nil unless ABOptions.HeapProfile was enabled.
	HeapProfiles *ABHeapProfiles
	// Frag is the per-arm fleet-summed fragmentation decomposition
	// (always populated — the decomposition is a pure read of each
	// machine's end state).
	Frag ABFrag
	// CoverageControl and CoverageExperiment are each arm's
	// time-averaged hugepage coverage, the mean over enrolled machines
	// taken in enrolment order.
	CoverageControl, CoverageExperiment float64
}

// ABOptions tune an experiment.
type ABOptions struct {
	// SampleFraction of machines to enrol (the paper uses 1% + 1%;
	// the simulation runs paired control/experiment on each sampled
	// machine, which removes inter-group noise).
	SampleFraction float64
	// MinMachines floors the enrolment for small fleets.
	MinMachines int
	// DurationNs is the virtual run length per machine.
	DurationNs int64
	// TimeWarpGamma compresses lifetimes so that multi-hour behaviour
	// (decline phases, whole-hugepage drains) happens in-run.
	TimeWarpGamma float64
	// Chaos, when Enabled, installs a deterministic fault plan in every
	// enrolled machine's simulated OS. The plan's Seed is mixed with each
	// machine's own seed, so different machines fail at different —
	// reproducible — points.
	Chaos mem.FaultPlan
	// AuditEveryNs, when positive, runs the allocator invariant auditor
	// at this virtual-time cadence on every enrolled run.
	AuditEveryNs int64
	// Workers bounds how many enrolled machines are simulated
	// concurrently (the CLIs' -j flag). 0 selects GOMAXPROCS; 1 runs
	// the legacy sequential path on the caller's goroutine. The
	// parallel path is bit-identical to Workers=1 for the same options:
	// every machine is independently seeded, per-machine outcomes land
	// in index-addressed slots, and the reducer merges them in
	// enrolment order regardless of completion order.
	Workers int
	// Telemetry, when Enabled, instruments every enrolled machine run
	// and aggregates both arms' registries into ABResult.Telemetry. The
	// merge is deterministic at any worker count: registry values are
	// integral counters/gauges and unit-weight histograms, and the
	// reducer folds per-machine registries in enrolment order.
	Telemetry telemetry.Config
	// ControlDesign and ExperimentDesign, when non-empty, are the arms'
	// design-point strings ("percpu=hetero,tc=nuca,..."). They change no
	// simulation behaviour — the configs do that — but are stamped onto
	// the merged telemetry snapshots and heap profiles so exports and
	// profdiff identify each arm unambiguously.
	ControlDesign    string
	ExperimentDesign string
	// RetuneAtNs and RetuneDesign schedule a live design-point swap on
	// the experiment arm: every enrolled experiment run starts under the
	// experiment config and retunes to RetuneDesign at virtual time
	// RetuneAtNs (see workload.Options). The control arm never retunes.
	// This is the paper's live-retuning experiment shape — measure the
	// fleet before and after a policy change lands mid-run — and it
	// composes with Checkpoint/Churn: a machine killed at or after the
	// swap resumes with the swap in force.
	RetuneAtNs   int64
	RetuneDesign string
	// HeapProfile, when Enabled, attaches the sampled heap profiler to
	// every enrolled machine run (both arms) and aggregates the per-arm
	// profile views into ABResult.HeapProfiles. The profiler's seed is
	// mixed with each machine's own seed so sampling decisions differ per
	// machine but stay reproducible; the reducer folds per-machine
	// profiles in enrolment order, so the merged profiles are
	// byte-identical at any worker count.
	HeapProfile heapprof.Config
	// Checkpoint enables crash tolerance: periodic per-machine
	// checkpoints, resume, and the kill-and-resume smoke. The blobs
	// carry full machine state, so a resumed experiment is bit-identical
	// to an uninterrupted one at any worker count.
	Checkpoint CheckpointOptions
	// Churn is the per-machine probability of one scheduled kill (with
	// cold restart) at a seeded point of the run — machine churn and
	// repair. Restarted machines lose caches and heap but keep their
	// workload position.
	Churn float64
	// RestartOnOOM turns allocator refusals (the chaos plan's
	// mapped-byte budget) into OOM-kill/restart cycles instead of
	// dropped ops.
	RestartOnOOM bool
	// Retry re-drives a failed machine run with capped exponential
	// backoff; when checkpointing is on, retries resume from the
	// machine's last checkpoint instead of starting over. Scheduled
	// halts (ErrHalted) are never retried.
	Retry sched.RetryPolicy
	// RetrySleep substitutes the backoff sleeper (tests); nil means
	// real time.Sleep.
	RetrySleep func(time.Duration)
}

// DefaultABOptions returns the standard experiment setup.
func DefaultABOptions() ABOptions {
	return ABOptions{
		SampleFraction: 0.01,
		MinMachines:    12,
		DurationNs:     250 * workload.Millisecond,
		TimeWarpGamma:  0.15,
	}
}

// runMachine is the machine-run entry point A/B experiments use; tests
// swap it to count runs or inject failing machines.
var runMachine = RunMachineLifecycle

// replayPairs lets the experiment arm of a pair replay the control
// arm's recorded stream instead of generating it again (see runArms).
// Tests clear it to force both arms live — the reference the tape path
// must reproduce exactly.
var replayPairs = true

// runArms runs a pair's two arms, one runMachine call each, recording
// their lifecycle counts and halts in out. A run's stream depends only
// on the machine and the workload options while no malloc is refused,
// so the control arm records it and the experiment arm replays it. An
// unreplayable tape (the control saw refusals) or a stopped replay
// sends the experiment arm live. Chaos runs (faults on both arms) and
// lifecycle runs (taped drivers cannot restart, halt or checkpoint)
// always generate live. The tape is borrowed from tapes for the pair.
func runArms(out *machineOutcome, m Machine, cfgC, cfgE core.Config, woptsC, woptsE workload.Options,
	lcC, lcE LifecycleOptions, opts ABOptions, tapes chan *workload.Tape) (c, e RunMetrics, err error) {
	run := func(cfg core.Config, wopts workload.Options, lc LifecycleOptions) RunMetrics {
		if err != nil {
			return RunMetrics{}
		}
		rm, rt, halted, rerr := runMachine(m, cfg, wopts, lc)
		if rt != nil {
			out.chaos.Lifecycle.Add(rt.Counters())
		}
		out.halted = out.halted || halted
		err = rerr
		return rm
	}
	if replayPairs && !opts.Chaos.Enabled() && !lcC.Enabled() {
		tape := <-tapes
		defer func() { tapes <- tape }()
		woptsC.Record = tape
		c = run(cfgC, woptsC, lcC)
		if tape.Replayable() {
			replay := woptsE
			replay.Replay = tape
			if e = run(cfgE, replay, lcE); !tape.Stopped() {
				return c, e, err
			}
		}
	} else {
		c = run(cfgC, woptsC, lcC)
	}
	e = run(cfgE, woptsE, lcE)
	return c, e, err
}

// sampleIndices picks the enrolled machines for an experiment: n
// distinct indices strided evenly across the fleet, where n is
// SampleFraction of the fleet floored by MinMachines and capped at the
// fleet size. Indices are strictly increasing — i*stride with
// stride = total/n never reaches total when n <= total — so no machine
// is ever silently enrolled twice (the old (i*stride)%total walk relied
// on a wraparound that would re-run machines if the clamps were ever
// loosened). An empty fleet enrols nothing instead of dividing by zero.
func sampleIndices(total int, opts ABOptions) []int {
	n := min(max(int(float64(total)*opts.SampleFraction), opts.MinMachines), total)
	if n <= 0 {
		return nil
	}
	return StrideIndices(total, n)
}

// StrideIndices returns n indices strided evenly over [0, total), for
// 0 < n <= total: i*(total/n), strictly increasing. Fleet enrolment, the
// daemon's enrolment and its fault bursts all sample machines this way.
func StrideIndices(total, n int) []int {
	stride := total / n
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * stride
	}
	return idx
}

// pair is one enrolled machine's paired control/experiment deltas.
type pair struct {
	app          string
	dThr, dMem   float64
	dCPI         float64
	llcB, llcA   float64
	walkB, walkA float64
	covC, covE   float64
}

// machineOutcome is everything one enrolled machine contributes to an
// ABResult. Outcomes are produced in index-addressed slots by the worker
// pool and merged in enrolment order by mergeOutcomes.
type machineOutcome struct {
	pair         pair
	chaos        ChaosStats
	telC, telE   *telemetry.Registry
	hpC, hpE     []heapprof.Profile
	fragC, fragE core.FragZ
	halted       bool
}

// lifecycleFor builds one arm's lifecycle options from the experiment
// options. attempt > 0 means a supervisor retry: resume from the
// machine's last checkpoint rather than starting over.
func lifecycleFor(opts ABOptions, arm, design string, attempt int) LifecycleOptions {
	lc := LifecycleOptions{
		Checkpoint:   opts.Checkpoint,
		Arm:          arm,
		Design:       design,
		Churn:        opts.Churn,
		ChurnSeed:    0xc0ffee ^ opts.Chaos.Seed,
		RestartOnOOM: opts.RestartOnOOM,
	}
	if attempt > 0 && lc.Checkpoint.enabled() {
		lc.Checkpoint.Resume = true
	}
	return lc
}

// runPair executes one machine's paired control/experiment runs and
// derives its deltas. It touches no Fleet state besides the (read-only)
// machine descriptor, which is what makes the A/B loop embarrassingly
// parallel. With lifecycle options enabled it checkpoints, restarts and
// resumes each arm; a KillAtFrac halt returns halted=true with both
// arms checkpointed.
func runPair(m Machine, control, experiment core.Config, opts ABOptions, attempt int, tapes chan *workload.Tape) (machineOutcome, error) {
	wopts := workload.DefaultOptions(m.Seed)
	wopts.Duration = opts.DurationNs
	if opts.TimeWarpGamma > 0 {
		wopts.TimeWarpGamma = opts.TimeWarpGamma
	}
	wopts.AuditEveryNs = opts.AuditEveryNs
	// Only the experiment arm retunes; the control arm is the fixed
	// reference the deltas are measured against.
	woptsE := wopts
	if opts.RetuneDesign != "" && opts.RetuneAtNs > 0 {
		woptsE.RetuneAtNs = opts.RetuneAtNs
		woptsE.RetuneDesign = opts.RetuneDesign
	}
	cfgC, cfgE := control, experiment
	if opts.Chaos.Enabled() {
		plan := opts.Chaos
		plan.Seed ^= m.Seed // per-machine, reproducible failure points
		cfgC.Faults, cfgE.Faults = plan, plan
	}
	if opts.Telemetry.Enabled {
		cfgC.Telemetry, cfgE.Telemetry = opts.Telemetry, opts.Telemetry
	}
	if opts.HeapProfile.Enabled {
		hcfg := opts.HeapProfile
		hcfg.Seed ^= m.Seed // per-machine, reproducible sampling decisions
		cfgC.HeapProfile, cfgE.HeapProfile = hcfg, hcfg
	}
	var out machineOutcome
	c, e, err := runArms(&out, m, cfgC, cfgE, wopts, woptsE,
		lifecycleFor(opts, "control", opts.ControlDesign, attempt),
		lifecycleFor(opts, "experiment", opts.ExperimentDesign, attempt), opts, tapes)
	if err != nil || out.halted {
		return out, err // a halted run has no metrics until the resume pass
	}
	out.telC, out.telE = c.Telemetry, e.Telemetry
	out.hpC, out.hpE = c.HeapProfiles, e.HeapProfiles
	out.fragC, out.fragE = c.Frag, e.Frag
	for _, rm := range []RunMetrics{c, e} {
		st := rm.Result.Stats
		out.chaos.InjectedFailures += st.Faults.InjectedFailures
		out.chaos.BudgetFailures += st.Faults.BudgetFailures
		out.chaos.OOMErrors += st.OOMErrors
		out.chaos.AllocFailures += rm.Result.AllocFailures
		out.chaos.PressureEvents += st.Heap.PressureEvents
		out.chaos.PressureReleasedBytes += st.Heap.PressureReleasedBytes
		out.chaos.Audits += rm.Result.Audits
		out.chaos.Violations += int64(len(rm.Result.Violations))
	}

	// Application work per op is config-independent; derive it from
	// the control run and the profile's malloc fraction, then
	// compute each side's malloc share against the same work.
	workPerOp := 0.0
	if c.Result.Ops > 0 && m.App.MallocFraction > 0 {
		mallocPerOp := c.Result.MallocNs / float64(c.Result.Ops)
		workPerOp = mallocPerOp * (1 - m.App.MallocFraction) / m.App.MallocFraction
	}
	share := func(rm RunMetrics) float64 {
		total := workPerOp*float64(rm.Result.Ops) + rm.Result.MallocNs
		if total == 0 {
			return 0
		}
		return rm.Result.MallocNs / total
	}

	base := perfmodel.AppMPKIBaselines[m.App.Name]
	if base == 0 {
		base = perfmodel.AppMPKIBaselines["fleet"]
	}
	// Anchor coverage at the model's reference point for the control
	// and apply only the measured delta for the experiment: absolute
	// simulated coverage is not comparable to the fleet's.
	params := perfmodel.DefaultParams()
	inC := perfmodel.Inputs{
		BaseMPKI:            base,
		InterDomainShare:    c.InterDomainShare,
		AllocatorCacheBytes: c.CacheBytes,
		HugepageCoverage:    params.RefCoverage,
		MallocTimeShare:     share(c),
		Ops:                 c.Result.Ops,
		DurationNs:          opts.DurationNs,
	}
	inE := inC
	inE.InterDomainShare = e.InterDomainShare
	inE.AllocatorCacheBytes = e.CacheBytes
	inE.HugepageCoverage = params.RefCoverage + (e.Coverage - c.Coverage)
	inE.MallocTimeShare = share(e)
	inE.Ops = e.Result.Ops

	// Per-app dTLB anchoring (Table 2 rows differ by app).
	mc := perfmodel.Evaluate(params, inC)
	me := perfmodel.Evaluate(params, inE)
	walkB, walkA := perfmodel.WalkPctPair(params, m.App.Name, c.Coverage, e.Coverage)

	dMem := 0.0
	if c.AvgHeapBytes > 0 {
		dMem = (float64(e.AvgHeapBytes) - float64(c.AvgHeapBytes)) / float64(c.AvgHeapBytes) * 100
	}
	out.pair = pair{
		app:   m.App.Name,
		dThr:  (me.ThroughputIndex - mc.ThroughputIndex) / mc.ThroughputIndex * 100,
		dMem:  dMem,
		dCPI:  (me.CPI - mc.CPI) / mc.CPI * 100,
		llcB:  mc.LLCLoadMPKI,
		llcA:  me.LLCLoadMPKI,
		walkB: walkB,
		walkA: walkA,
		covC:  c.Coverage,
		covE:  e.Coverage,
	}
	return out, nil
}

// mergeOutcomes is the deterministic reducer: it folds per-machine
// outcomes into an ABResult by walking them in enrolment order, so the
// merged result is independent of worker count and completion order.
// The chaos counters are integer sums (commutative exactly); the row
// aggregation sums floats, whose grouping is fixed by the enrolment
// order rather than by whichever machine finished first.
func mergeOutcomes(outcomes []machineOutcome, opts ABOptions) ABResult {
	pairs := make([]pair, 0, len(outcomes))
	var chaos ChaosStats
	var tel *ABTelemetry
	var hp *ABHeapProfiles
	var frag ABFrag
	var covC, covE float64
	for _, o := range outcomes {
		pairs = append(pairs, o.pair)
		covC += o.pair.covC
		covE += o.pair.covE
		frag.Control.Accumulate(o.fragC)
		frag.Experiment.Accumulate(o.fragE)
		if o.telC != nil || o.telE != nil {
			if tel == nil {
				tel = &ABTelemetry{
					Control:          telemetry.NewRegistry(),
					Experiment:       telemetry.NewRegistry(),
					ControlDesign:    opts.ControlDesign,
					ExperimentDesign: opts.ExperimentDesign,
				}
			}
			tel.Control.Merge(o.telC)
			tel.Experiment.Merge(o.telE)
		}
		if o.hpC != nil || o.hpE != nil {
			if hp == nil {
				hp = &ABHeapProfiles{}
			}
			hp.Control = heapprof.Merge(hp.Control, o.hpC)
			hp.Experiment = heapprof.Merge(hp.Experiment, o.hpE)
		}
		chaos.InjectedFailures += o.chaos.InjectedFailures
		chaos.BudgetFailures += o.chaos.BudgetFailures
		chaos.OOMErrors += o.chaos.OOMErrors
		chaos.AllocFailures += o.chaos.AllocFailures
		chaos.PressureEvents += o.chaos.PressureEvents
		chaos.PressureReleasedBytes += o.chaos.PressureReleasedBytes
		chaos.Audits += o.chaos.Audits
		chaos.Violations += o.chaos.Violations
		chaos.Lifecycle.Add(o.chaos.Lifecycle)
	}

	aggregate := func(ps []pair, name string) Row {
		row := Row{App: name, Machines: len(ps)}
		for _, p := range ps {
			row.ThroughputPct += p.dThr
			row.MemoryPct += p.dMem
			row.CPIPct += p.dCPI
			row.LLCBefore += p.llcB
			row.LLCAfter += p.llcA
			row.WalkBeforePct += p.walkB
			row.WalkAfterPct += p.walkA
		}
		n := float64(len(ps))
		if n > 0 {
			row.ThroughputPct /= n
			row.MemoryPct /= n
			row.CPIPct /= n
			row.LLCBefore /= n
			row.LLCAfter /= n
			row.WalkBeforePct /= n
			row.WalkAfterPct /= n
		}
		return row
	}

	if hp != nil {
		// Label the merged arms so the exporters can tell them apart, and
		// stamp each arm's design string when the caller provided one.
		for i := range hp.Control {
			hp.Control[i].Label = "control"
			hp.Control[i].Design = opts.ControlDesign
		}
		for i := range hp.Experiment {
			hp.Experiment[i].Label = "experiment"
			hp.Experiment[i].Design = opts.ExperimentDesign
		}
	}

	byApp := map[string][]pair{}
	for _, p := range pairs {
		byApp[p.app] = append(byApp[p.app], p)
	}
	res := ABResult{Fleet: aggregate(pairs, "fleet"), Chaos: chaos, Telemetry: tel, HeapProfiles: hp, Frag: frag}
	if n := float64(len(pairs)); n > 0 {
		res.CoverageControl, res.CoverageExperiment = covC/n, covE/n
	}
	var names []string
	for name := range byApp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.PerApp = append(res.PerApp, aggregate(byApp[name], name))
	}
	return res
}

// ABTestErr runs a paired fleet experiment comparing two configurations,
// fanning the enrolled machines out over opts.Workers goroutines. A
// panicking machine run fails the whole experiment with a MachineError
// naming the machine and its seed (so the failure is reproducible with
// -j 1) instead of killing the process or deadlocking the pool. With
// opts.Retry set, failed machine runs are re-driven with capped
// exponential backoff — resuming from their last checkpoint when
// checkpointing is on — before the experiment is declared failed.
// When opts.Checkpoint.KillAtFrac halts the enrolled runs, every
// machine is checkpointed and the experiment returns ErrHalted; re-run
// with opts.Checkpoint.Resume to finish it bit-identically to a run
// that was never killed.
func (f *Fleet) ABTestErr(control, experiment core.Config, opts ABOptions) (ABResult, error) {
	idx := sampleIndices(len(f.Machines), opts)
	outcomes := make([]machineOutcome, len(idx))
	// One tape per worker, lent to each pair in turn, so workers reuse
	// tape storage (about 32 bytes per malloc of a run) across pairs;
	// the tapes come from and return to tapePool, so a caller that runs
	// one machine per call reuses them across calls too.
	workers := sched.DefaultWorkers(opts.Workers)
	tapes := make(chan *workload.Tape, workers)
	for range workers {
		tapes <- tapePool.get()
	}
	defer func() {
		for range workers {
			tapePool.put(<-tapes)
		}
	}()
	sup := &sched.Supervisor{
		Policy: opts.Retry,
		Sleep:  opts.RetrySleep,
		// An intentional halt is not a failure; a checkpoint that
		// doesn't decode never will, so retrying it only burns time.
		Retryable: func(err error) bool { return !errors.Is(err, ErrHalted) },
	}
	err := sup.Map(context.Background(), len(idx), opts.Workers, func(i, attempt int) error {
		o, err := runPair(f.Machines[idx[i]], control, experiment, opts, attempt, tapes)
		if err != nil {
			return err
		}
		outcomes[i] = o
		return nil
	})
	if err != nil {
		var me *MachineError
		if errors.As(err, &me) {
			return ABResult{}, err
		}
		var pe *sched.PanicError
		if errors.As(err, &pe) && pe.Index >= 0 && pe.Index < len(idx) {
			m := f.Machines[idx[pe.Index]]
			return ABResult{}, &MachineError{
				MachineID: m.ID, Seed: m.Seed, App: m.App.Name, VirtualNs: -1,
				Err: fmt.Errorf("panicked: %v", pe.Value),
			}
		}
		return ABResult{}, err
	}
	halted := 0
	for _, o := range outcomes {
		if o.halted {
			halted++
		}
	}
	if halted > 0 {
		return ABResult{}, fmt.Errorf("%d of %d machines killed at %.0f%% virtual time: %w",
			halted, len(idx), opts.Checkpoint.KillAtFrac*100, ErrHalted)
	}
	return mergeOutcomes(outcomes, opts), nil
}

// tapePool keeps recorded tapes between ABTestErr calls. Recording
// resets every column, so a reused tape records exactly what a fresh one
// would; reuse only spares allocating and zeroing a tape per call.
var tapePool tapeFreeList

// tapeFreeList is a mutex-guarded free list of tapes, bounded at
// GOMAXPROCS (the default worker count) so an idle pool holds at most
// one tape per CPU.
type tapeFreeList struct {
	mu   sync.Mutex
	free []*workload.Tape
}

func (l *tapeFreeList) get() *workload.Tape {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return t
	}
	return new(workload.Tape)
}

func (l *tapeFreeList) put(t *workload.Tape) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, t)
	}
}

// ABTest runs a paired fleet experiment comparing two configurations.
// It is ABTestErr with error propagation by panic, for callers (the
// experiment runners) that treat a failed machine run as fatal.
func (f *Fleet) ABTest(control, experiment core.Config, opts ABOptions) ABResult {
	res, err := f.ABTestErr(control, experiment, opts)
	if err != nil {
		panic(err)
	}
	return res
}
