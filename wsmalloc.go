// Package wsmalloc is a warehouse-scale memory-allocator laboratory: a
// faithful structural simulation of TCMalloc's cache hierarchy (per-CPU
// caches, transfer caches, central free lists, hugepage-aware pageheap)
// together with the four redesigns from "Characterizing a Memory
// Allocator at Warehouse Scale" (ASPLOS '24) — heterogeneous per-CPU
// caches, NUCA-aware transfer caches, span prioritization, and the
// lifetime-aware hugepage filler — plus the workload generators, fleet
// A/B experiment framework, and experiment harness that regenerate every
// table and figure in the paper's evaluation.
//
// Quick start:
//
//	alloc := wsmalloc.NewAllocator(wsmalloc.Optimized(), wsmalloc.DefaultPlatform())
//	addr, cost := alloc.Malloc(128, 0) // 128 bytes from a thread on CPU 0
//	alloc.Free(addr, 128, 0)
//	fmt.Println(alloc.Stats().FragmentationRatio(), cost)
//
// Run a synthetic production workload:
//
//	res := wsmalloc.RunWorkload(wsmalloc.Spanner(), wsmalloc.Baseline(), 42)
//
// Reproduce a paper experiment:
//
//	rep, _ := wsmalloc.Experiment("table2")
//	fmt.Println(rep.Run(1, wsmalloc.ScaleQuick))
package wsmalloc

import (
	"io"

	"wsmalloc/internal/check"
	"wsmalloc/internal/core"
	"wsmalloc/internal/experiments"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/sched"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// Core allocator types.
type (
	// Allocator is the composed TCMalloc model for one process.
	Allocator = core.Allocator
	// Config selects the allocator design point.
	Config = core.Config
	// Stats is a full allocator telemetry snapshot.
	Stats = core.Stats
	// TimeBreakdown is the per-component cycle accounting (Fig. 6a).
	TimeBreakdown = core.TimeBreakdown
)

// Hardware and workload types.
type (
	// Platform describes a server platform generation.
	Platform = topology.Platform
	// Topology maps CPUs to cores, LLC domains and sockets.
	Topology = topology.Topology
	// Profile describes one application's allocation behaviour.
	Profile = workload.Profile
	// RunOptions controls a workload run.
	RunOptions = workload.Options
	// RunResult summarizes a workload run.
	RunResult = workload.Result
)

// Fleet experimentation types.
type (
	// Fleet is a population of machines for A/B experiments.
	Fleet = fleet.Fleet
	// ABOptions tunes a fleet experiment.
	ABOptions = fleet.ABOptions
	// ABResult is a fleet experiment outcome.
	ABResult = fleet.ABResult
	// Machine is one synthetic machine of a fleet population.
	Machine = fleet.Machine
	// Report is a printable experiment outcome.
	Report = experiments.Report
	// Scale trades experiment fidelity for wall-clock time.
	Scale = experiments.Scale
)

// Heap-integrity sanitizer and fault-injection types.
type (
	// CheckConfig configures the shadow-heap sanitizer (Config.Check).
	CheckConfig = check.Config
	// Violation is one detected integrity failure.
	Violation = check.Violation
	// FaultPlan is a deterministic OS fault-injection plan
	// (Config.Faults, ABOptions.Chaos).
	FaultPlan = mem.FaultPlan
	// ChaosStats aggregates fault-injection outcomes over a fleet A/B.
	ChaosStats = fleet.ChaosStats
	// ExperimentInstrumentation selects the sanitizer, fault-injection,
	// telemetry and heap-profile instrumentation of experiment runs.
	ExperimentInstrumentation = experiments.Instrumentation
)

// Crash-tolerance and machine-lifecycle types (ABOptions.Checkpoint,
// ABOptions.Churn, ABOptions.Retry).
type (
	// CheckpointOptions control deterministic checkpoint/resume of a
	// fleet experiment (ABOptions.Checkpoint).
	CheckpointOptions = fleet.CheckpointOptions
	// MachineError names the machine (seed, app, virtual timestamp)
	// behind a failed or unresumable machine run.
	MachineError = fleet.MachineError
	// RetryPolicy caps the supervisor's per-machine retries with
	// exponential backoff (ABOptions.Retry).
	RetryPolicy = sched.RetryPolicy
	// LifecycleStats counts churn kills, OOM kills and restarts over a
	// fleet experiment (ChaosStats.Lifecycle).
	LifecycleStats = fleet.LifecycleStats
)

// ErrHalted reports a run stopped at a scheduled kill point after
// checkpointing every machine; re-run with CheckpointOptions.Resume to
// finish it.
var ErrHalted = fleet.ErrHalted

// Telemetry types (Config.Telemetry, ABOptions.Telemetry).
type (
	// TelemetryConfig enables the metrics registry, event tracer and
	// time-series sampler on an allocator or fleet experiment.
	TelemetryConfig = telemetry.Config
	// TelemetryRegistry is a mergeable registry of counters, gauges and
	// log-histograms.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySink is the nil-safe instrumentation hub the tiers emit
	// events into.
	TelemetrySink = telemetry.Sink
	// TelemetrySnapshot is an export-ready, name-sorted registry snapshot.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceEvent is one structural allocator event from the ring tracer.
	TraceEvent = telemetry.Event
	// TraceDump is the tracer's exported view: retained events plus the
	// total/dropped loss counters.
	TraceDump = telemetry.TraceDump
	// TelemetryEndpoints bundles the accessors behind the live HTTP pages
	// (/metricsz, /tracez, /heapz, /pageheapz).
	TelemetryEndpoints = telemetry.Endpoints
	// ABTelemetry is the per-arm fleet-merged registry pair.
	ABTelemetry = fleet.ABTelemetry
)

// Sampled heap profiling and fragmentation introspection types
// (Config.HeapProfile, ABOptions.HeapProfile).
type (
	// HeapProfileConfig enables the Poisson-sampled heap profiler on an
	// allocator or fleet experiment.
	HeapProfileConfig = heapprof.Config
	// HeapProfile is one exported profile view (heapz, allocz or
	// peakheapz).
	HeapProfile = heapprof.Profile
	// HeapProfileSite is one attributed call-site row of a profile.
	HeapProfileSite = heapprof.Site
	// ABHeapProfiles is the per-arm fleet-merged heap profile pair.
	ABHeapProfiles = fleet.ABHeapProfiles
	// PageHeapZ is the /pageheapz document: hugepage occupancy maps plus
	// the Fig. 11 fragmentation decomposition.
	PageHeapZ = core.PageHeapZ
	// FragZ is the allocator-wide Fig. 11 fragmentation decomposition.
	FragZ = core.FragZ
	// ABFrag is the per-arm fleet-summed fragmentation decomposition pair.
	ABFrag = fleet.ABFrag
)

// DefaultHeapProfileConfig returns heap profiling enabled at the default
// 512 KiB mean sampling interval.
func DefaultHeapProfileConfig() HeapProfileConfig {
	return heapprof.Config{Enabled: true}
}

// WriteHeapProfiles renders profiles in the pprof-compatible text format.
func WriteHeapProfiles(w io.Writer, profiles ...HeapProfile) error {
	return heapprof.WriteText(w, profiles...)
}

// WriteHeapProfilesJSON renders profiles as an indented JSON document.
func WriteHeapProfilesJSON(w io.Writer, profiles ...HeapProfile) error {
	return heapprof.WriteJSON(w, profiles...)
}

// MergeHeapProfiles folds src's views into dst (matching by view name)
// and returns the merged set.
func MergeHeapProfiles(dst, src []HeapProfile) []HeapProfile {
	return heapprof.Merge(dst, src)
}

// WritePageHeapZ renders the introspection document as the /pageheapz
// text page.
func WritePageHeapZ(w io.Writer, z PageHeapZ) error { return core.WritePageHeapZ(w, z) }

// WritePageHeapZJSON renders the introspection document as indented JSON.
func WritePageHeapZJSON(w io.Writer, z PageHeapZ) error { return core.WritePageHeapZJSON(w, z) }

// DefaultTelemetryConfig returns telemetry enabled with a 4096-event
// trace ring and no time-series sampling.
func DefaultTelemetryConfig() TelemetryConfig { return telemetry.DefaultConfig() }

// WriteTelemetryPrometheus renders snapshots in Prometheus text format.
func WriteTelemetryPrometheus(w io.Writer, snaps ...TelemetrySnapshot) error {
	return telemetry.WritePrometheus(w, snaps...)
}

// WriteTelemetryMallocz renders snapshots as a TCMalloc statsz-style
// human-readable dump.
func WriteTelemetryMallocz(w io.Writer, snaps ...TelemetrySnapshot) error {
	return telemetry.WriteMallocz(w, snaps...)
}

// WriteTelemetryFiles writes base.prom, base.json and base.mallocz and
// returns the paths written. The trace dump (events plus total/dropped
// loss counters) rides along inside the JSON document.
func WriteTelemetryFiles(base string, snaps []TelemetrySnapshot,
	series []TelemetrySnapshot, trace TraceDump) ([]string, error) {
	return telemetry.WriteFiles(base, snaps, series, trace)
}

// ServeTelemetry serves /metricsz, /tracez, /heapz and /pageheapz on
// addr (blocking). Nil accessors serve empty pages.
func ServeTelemetry(addr string, ep TelemetryEndpoints) error {
	return telemetry.ServeEndpoints(addr, ep)
}

// Allocation-failure sentinels: errors.Is(err, ErrNoMemory) identifies an
// out-of-memory failure from TryMalloc; ErrBadFree an invalid TryFree.
var (
	ErrNoMemory = core.ErrNoMemory
	ErrBadFree  = core.ErrBadFree
)

// FullCheckConfig returns the full-coverage sanitizer configuration:
// every allocation shadow-tracked, every free verified.
func FullCheckConfig() CheckConfig { return check.DefaultConfig() }

// InstrumentExperiments installs the instrumentation of every subsequent
// profile-driven experiment run (the cmd/experiments -audit, -chaos,
// -telemetry and -heapprof flags). Each Report carries what its runs
// measured in its Measures: the merged registry and heap profiles, and
// the runs that tripped an audit.
func InstrumentExperiments(in ExperimentInstrumentation) { experiments.Instrument(in) }

// Experiment scales.
const (
	ScaleFull  = experiments.ScaleFull
	ScaleQuick = experiments.ScaleQuick
	ScaleSmoke = experiments.ScaleSmoke
)

// Baseline returns the pre-redesign TCMalloc configuration.
func Baseline() Config { return core.BaselineConfig() }

// Optimized returns the paper's full redesign (§4.5).
func Optimized() Config { return core.OptimizedConfig() }

// Policy architecture types: every tier decision is a named, registered
// policy, and a DesignPoint selects one per tier.
type (
	// DesignPoint names one policy per tier; its canonical string is
	// "percpu=NAME,tc=NAME,cfl=NAME,filler=NAME".
	DesignPoint = policy.DesignPoint
	// TierPolicy is one registered per-tier policy.
	TierPolicy = policy.Policy
	// DesignPointResult is one leaderboard row of a design-space sweep.
	DesignPointResult = experiments.DesignPointResult
)

// BaselineDesign is the all-legacy design point.
func BaselineDesign() DesignPoint { return policy.Baseline() }

// OptimizedDesign is the paper's full-redesign design point.
func OptimizedDesign() DesignPoint { return policy.Optimized() }

// ParseDesignPoint reads a design-point string: a named shorthand
// ("baseline", "optimized", or one of the paper's four redesigns:
// "heterogeneous-percpu-cache", "nuca-transfer-cache",
// "span-prioritization", "lifetime-aware-filler"), or comma-separated
// tier=policy pairs (omitted tiers stay baseline).
func ParseDesignPoint(s string) (DesignPoint, error) { return policy.Parse(s) }

// IsDesignShorthand reports whether name is one of ParseDesignPoint's
// named shorthands.
func IsDesignShorthand(name string) bool { return policy.IsShorthand(name) }

// ConfigForDesign builds the allocator configuration for a design point.
func ConfigForDesign(d DesignPoint) (Config, error) { return core.ConfigForDesign(d) }

// PolicyTiers lists the tier keys in canonical order
// ("percpu", "tc", "cfl", "filler").
func PolicyTiers() []string { return policy.Tiers() }

// PolicyNames lists the registered policy names of one tier.
func PolicyNames(tier string) []string { return policy.Names(tier) }

// LookupPolicy finds one registered policy by tier and name.
func LookupPolicy(tier, name string) (TierPolicy, bool) { return policy.Lookup(tier, name) }

// DefaultDesignGrid is the standard design-space sweep: the paper's 2^4
// feature cross product plus one point per post-paper policy.
func DefaultDesignGrid() []DesignPoint { return experiments.DefaultDesignGrid() }

// SetDesignSpace installs the points swept by the next "designspace"
// experiment run (nil selects DefaultDesignGrid) and the output base
// path for its JSON/CSV leaderboard ("" writes no files).
func SetDesignSpace(points []DesignPoint, outBase string) {
	experiments.SetDesignSpace(points, outBase)
}

// NewAllocator builds an allocator on the given platform.
func NewAllocator(cfg Config, p Platform) *Allocator {
	return core.New(cfg, topology.New(p))
}

// DefaultPlatform returns the newest chiplet platform generation.
func DefaultPlatform() Platform { return topology.Default() }

// Platforms lists the fleet's platform generations.
func Platforms() []Platform { return topology.Catalog }

// Production workload profiles (§2.3).
func Spanner() Profile  { return workload.Spanner() }
func Monarch() Profile  { return workload.Monarch() }
func Bigtable() Profile { return workload.Bigtable() }
func F1Query() Profile  { return workload.F1Query() }
func Disk() Profile     { return workload.Disk() }

// Benchmark and control profiles (§2.3, §3).
func Redis() Profile           { return workload.Redis() }
func DataPipeline() Profile    { return workload.DataPipeline() }
func ImageProcessing() Profile { return workload.ImageProcessing() }
func Tensorflow() Profile      { return workload.Tensorflow() }
func SPECLike() Profile        { return workload.SPECLike() }

// FleetMix returns the aggregate fleet profile.
func FleetMix() Profile { return workload.Fleet() }

// AllProfiles lists every built-in profile.
func AllProfiles() []Profile { return workload.AllProfiles() }

// ProfileByName looks a profile up by name.
func ProfileByName(name string) (Profile, bool) { return workload.ByName(name) }

// RunWorkload drives a profile against a fresh allocator on the default
// platform for the default duration.
func RunWorkload(p Profile, cfg Config, seed uint64) RunResult {
	alloc := NewAllocator(cfg, DefaultPlatform())
	return workload.Run(p, alloc, workload.DefaultOptions(seed))
}

// RunWorkloadOptions drives a profile with explicit options.
func RunWorkloadOptions(p Profile, cfg Config, opts RunOptions) RunResult {
	alloc := NewAllocator(cfg, DefaultPlatform())
	return workload.Run(p, alloc, opts)
}

// RunWorkloadOn drives a profile against a caller-built allocator, for
// callers that need the allocator afterwards (telemetry snapshots, trace
// dumps, white-box stats).
func RunWorkloadOn(p Profile, alloc *Allocator, opts RunOptions) RunResult {
	return workload.Run(p, alloc, opts)
}

// DefaultRunOptions returns workload options for a seed.
func DefaultRunOptions(seed uint64) RunOptions { return workload.DefaultOptions(seed) }

// NewFleet builds a synthetic fleet of n machines.
func NewFleet(n int, seed uint64) *Fleet { return fleet.New(n, seed) }

// DefaultABOptions returns the standard fleet experiment setup.
func DefaultABOptions() ABOptions { return fleet.DefaultABOptions() }

// Experiment returns the named paper experiment: "fig3".."fig17",
// "table1", "table2", "combined", "designspace", "ablation-l",
// "ablation-c", "ablation-capacity", "selftest", "chaos", "lifecycle" or
// "churn".
func Experiment(name string) (experiments.Runner, bool) {
	return experiments.ByName(name)
}

// Experiments lists every experiment in paper order.
func Experiments() []experiments.Runner { return experiments.Registry() }

// SetExperimentWorkers bounds intra-experiment parallelism — fleet A/B
// machine fan-out, per-profile benchmark sweeps, ablation sweeps — for
// every subsequent experiment run (the cmd/experiments -j flag). n <= 0
// selects GOMAXPROCS; 1 restores the fully sequential legacy path.
// Parallel results are bit-identical to sequential for the same seed.
func SetExperimentWorkers(n int) { experiments.SetWorkers(n) }

// RunExperiments executes the named experiments over the worker pool and
// returns their reports in argument order, independent of completion
// order.
func RunExperiments(names []string, seed uint64, scale Scale) ([]Report, error) {
	return experiments.RunMany(names, seed, scale)
}
