package fleet

import (
	"errors"
	"flag"
	"fmt"

	"wsmalloc/internal/core"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/policy"
)

// RunSpec is one resolved invocation of a one-shot CLI (fleet-ab,
// wsmalloc-sim): what to run, what to observe, and the machine
// lifecycle to run it under.
type RunSpec struct {
	Seed       uint64
	DurationMs int64
	// Design and Config are the -design point and its configuration;
	// without -design (DesignSet false) the CLI resolves its own default.
	Design    policy.DesignPoint
	Config    core.Config
	DesignSet bool
	// RetuneAtNs and RetuneDesign (canonical) schedule the live design
	// swap; both zero when off.
	RetuneAtNs   int64
	RetuneDesign string
	// Telemetry is -telemetry, which -metrics-out and -serve imply.
	Telemetry  bool
	MetricsOut string
	ServeAddr  string
	// HeapProfile is enabled by -heapprof and seeded with -seed.
	HeapProfile            heapprof.Config
	CPUProfile, MemProfile string
	// Lifecycle has the checkpoint cadence resolved; Arm, Design and
	// ChurnSeed are the caller's to fill.
	Lifecycle LifecycleOptions
}

// DurationNs is the virtual run length in ns.
func (s RunSpec) DurationNs() int64 { return s.DurationMs * 1_000_000 }

// RunFlags are the flags the one-shot CLIs share, defined once so both
// spell, default and validate them alike.
type RunFlags struct {
	spec                                          RunSpec
	design, retuneDesign                          string
	retuneAtMs, checkpointEvery, heapprofInterval int64
	heapprof                                      bool
}

// BindRunFlags defines the shared flags on fs, -duration-ms defaulting
// to defaultDurationMs.
func BindRunFlags(fs *flag.FlagSet, defaultDurationMs int64) *RunFlags {
	f := &RunFlags{}
	s, lc := &f.spec, &f.spec.Lifecycle
	fs.Uint64Var(&s.Seed, "seed", 1, "deterministic seed")
	fs.Int64Var(&s.DurationMs, "duration-ms", defaultDurationMs, "virtual run length per machine in milliseconds")
	fs.StringVar(&f.design, "design", "",
		"design point overriding wsmalloc-sim -config or fleet-ab -feature (whose control arm stays baseline): \"baseline\", \"optimized\", or tier=policy pairs, e.g. percpu=hetero,tc=nuca,cfl=prio8,filler=capacity (see wsmalloc-sim -list-policies)")
	fs.Int64Var(&f.retuneAtMs, "retune-at-ms", 0, "live-swap the allocator to -retune-design at this virtual time (0 disables; fleet-ab's control arm never retunes)")
	fs.StringVar(&f.retuneDesign, "retune-design", "", "design point applied live at -retune-at-ms (e.g. \"optimized\" or \"percpu=hetero,tc=nuca,cfl=prio8,filler=capacity\")")
	fs.BoolVar(&s.Telemetry, "telemetry", false, "instrument the allocator with the metrics registry and dump a mallocz-style report (fleet-ab merges each arm's registries)")
	fs.StringVar(&s.MetricsOut, "metrics-out", "", "write telemetry to BASE.prom, BASE.json and BASE.mallocz, and heap profiles to BASE.heapz and BASE.heapz.json (implies -telemetry)")
	fs.StringVar(&s.ServeAddr, "serve", "", "serve /metricsz, /heapz, /statusz and /healthz (wsmalloc-sim adds /tracez and /pageheapz) on this address after the run (implies -telemetry, blocks)")
	fs.BoolVar(&f.heapprof, "heapprof", false, "attach the sampled heap profiler and dump heapz/allocz/peakheapz (fleet-ab merges each arm's profiles)")
	fs.Int64Var(&f.heapprofInterval, "heapprof-interval", 0, "mean sampled-allocation interval in bytes (0 = default 512 KiB)")
	fs.StringVar(&s.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	fs.StringVar(&s.MemProfile, "memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	fs.StringVar(&lc.Checkpoint.Dir, "checkpoint-dir", "", "directory for per-machine checkpoints (enables crash-tolerant runs)")
	fs.Int64Var(&f.checkpointEvery, "checkpoint-every-ms", 0, "virtual checkpoint cadence in ms (0 = duration/4; needs -checkpoint-dir)")
	fs.BoolVar(&lc.Checkpoint.Resume, "resume", false, "resume every machine from its checkpoint in -checkpoint-dir")
	fs.Float64Var(&lc.Checkpoint.KillAtFrac, "kill-frac", 0, "kill every machine at this fraction of virtual time after checkpointing (exit code 3; needs -checkpoint-dir)")
	fs.Float64Var(&lc.Churn, "churn", 0, "probability each machine run is killed once mid-run and restarted cold (machine churn)")
	fs.BoolVar(&lc.RestartOnOOM, "restart-on-oom", false, "OOM-kill and restart a machine on allocation failure instead of dropping the op (pair with a fault budget, e.g. fleet-ab -chaos-budget-mb)")
	return f
}

// Spec resolves and checks the parsed flags. The checkpoint cadence
// defaults to a quarter of the run.
func (f *RunFlags) Spec() (RunSpec, error) {
	s := f.spec
	if f.design != "" {
		var err error
		if s.Design, s.Config, err = ResolveDesign(f.design); err != nil {
			return s, err
		}
		s.DesignSet = true
	}
	if (f.retuneDesign != "") != (f.retuneAtMs > 0) {
		return s, errors.New("-retune-design and -retune-at-ms must be used together")
	}
	if f.retuneDesign != "" {
		dp, err := policy.Parse(f.retuneDesign)
		if err != nil {
			return s, fmt.Errorf("-retune-design: %w", err)
		}
		s.RetuneAtNs, s.RetuneDesign = f.retuneAtMs*1_000_000, dp.String()
	}
	s.Telemetry = s.Telemetry || s.MetricsOut != "" || s.ServeAddr != ""
	if f.heapprof {
		s.HeapProfile = heapprof.Config{Enabled: true, SampleIntervalBytes: f.heapprofInterval, Seed: s.Seed}
	}
	ck := &s.Lifecycle.Checkpoint
	if ck.Dir == "" {
		if ck.Resume || ck.KillAtFrac > 0 {
			return s, errors.New("-resume and -kill-frac need -checkpoint-dir")
		}
	} else if ck.EveryNs = f.checkpointEvery * 1_000_000; ck.EveryNs == 0 {
		ck.EveryNs = s.DurationNs() / 4
	}
	return s, nil
}

// ResolveDesign parses a design point and builds its allocator
// configuration: the design resolver of every CLI, whose errors read
// "-design: ...".
func ResolveDesign(spec string) (policy.DesignPoint, core.Config, error) {
	dp, err := policy.Parse(spec)
	if err == nil {
		var cfg core.Config
		if cfg, err = core.ConfigForDesign(dp); err == nil {
			return dp, cfg, nil
		}
	}
	return dp, core.Config{}, fmt.Errorf("-design: %w", err)
}
