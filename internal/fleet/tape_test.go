package fleet

import (
	"reflect"
	"runtime"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// observedConfig turns on every observer the stream must not depend on.
func observedConfig(d policy.DesignPoint) core.Config {
	cfg, err := core.ConfigForDesign(d)
	if err != nil {
		panic(err)
	}
	cfg.Telemetry = telemetry.Config{Enabled: true, TraceCapacity: 64}
	cfg.HeapProfile = heapprof.Config{Enabled: true, Seed: 0x5eed}
	return cfg
}

// streamDesigns is Baseline, Optimized and every ninth point of the
// registry cross-product (9 points spanning every policy of every tier).
func streamDesigns() []policy.DesignPoint {
	var grid []policy.DesignPoint
	var walk func(d policy.DesignPoint, tiers []string)
	walk = func(d policy.DesignPoint, tiers []string) {
		if len(tiers) == 0 {
			grid = append(grid, d)
			return
		}
		for _, name := range policy.Names(tiers[0]) {
			next, err := d.WithPolicy(tiers[0], name)
			if err != nil {
				panic(err)
			}
			walk(next, tiers[1:])
		}
	}
	walk(policy.Baseline(), policy.Tiers())
	out := []policy.DesignPoint{policy.Baseline(), policy.Optimized()}
	for i := 4; i < len(grid); i += 9 {
		out = append(out, grid[i])
	}
	return out
}

// TestStreamIsAllocatorIndependent is the contract the record/replay
// A/B path rests on: for every catalog profile and several seeds, the
// values the driver draws are identical under every allocator design,
// with a live retune, and with telemetry, heap profiling and audits on.
// A tier or policy that draws from the driver's RNG fails here.
func TestStreamIsAllocatorIndependent(t *testing.T) {
	designs := streamDesigns()
	if len(designs) < 10 {
		t.Fatalf("only %d designs", len(designs))
	}
	plat := topology.Catalog[0]
	for _, p := range workload.AllProfiles() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 2, 3} {
				m := Machine{Platform: plat, App: p, Seed: seed}
				opts := workload.DefaultOptions(seed)
				opts.Duration = 2 * workload.Millisecond
				record := func(cfg core.Config, o workload.Options) *workload.Tape {
					tape := new(workload.Tape)
					o.Record = tape
					RunMachineOpts(m, cfg, o)
					return tape
				}
				want := record(core.BaselineConfig(), opts)
				if !want.Replayable() {
					t.Fatalf("seed %d: baseline recording not replayable", seed)
				}
				for _, d := range designs[1:] {
					cfg, err := core.ConfigForDesign(d)
					if err != nil {
						t.Fatal(err)
					}
					if got := record(cfg, opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: stream under %s differs from baseline", seed, d)
					}
				}
				// The experiment arm's shape: every observer on, audits,
				// and a live retune from the baseline to the optimized
				// design.
				observed := opts
				observed.AuditEveryNs = workload.Millisecond / 2
				observed.RetuneAtNs = workload.Millisecond
				observed.RetuneDesign = policy.Optimized().String()
				if got := record(observedConfig(policy.Baseline()), observed); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: stream with observers, audits and a live retune differs", seed)
				}
			}
		})
	}
}

// TestRunMachineOptsReplayEquivalence: replaying a tape recorded under
// the baseline reproduces the live optimized machine run exactly —
// results, thread series, stats, fragmentation, telemetry and heap
// profiles.
func TestRunMachineOptsReplayEquivalence(t *testing.T) {
	f := New(16, 21)
	for _, m := range f.Machines[:4] {
		opts := workload.DefaultOptions(m.Seed)
		opts.Duration = 5 * workload.Millisecond
		opts.AuditEveryNs = 2 * workload.Millisecond
		live := RunMachineOpts(m, observedConfig(policy.Optimized()), opts)

		tape := new(workload.Tape)
		rec := opts
		rec.Record = tape
		RunMachineOpts(m, observedConfig(policy.Baseline()), rec)
		opts.Replay = tape
		replayed := RunMachineOpts(m, observedConfig(policy.Optimized()), opts)
		if !reflect.DeepEqual(live, replayed) {
			t.Fatalf("machine %d (%s): replayed RunMetrics differ from live", m.ID, m.App.Name)
		}
	}
}

// forceLive runs fn with both arms of every pair generating live.
func forceLive(fn func()) {
	replayPairs = false
	defer func() { replayPairs = true }()
	fn()
}

// tapeABOptions enables every observer plus a live retune on the
// experiment arm, with chaos off so pairs take the tape path.
func tapeABOptions(workers int) ABOptions {
	opts := DefaultABOptions()
	opts.MinMachines = 6
	opts.DurationNs = 6 * workload.Millisecond
	opts.AuditEveryNs = 2 * workload.Millisecond
	opts.Workers = workers
	opts.Telemetry = telemetry.Config{Enabled: true, TraceCapacity: 64}
	opts.HeapProfile = heapprof.Config{Enabled: true, Seed: 0x5eed}
	opts.RetuneAtNs = 3 * workload.Millisecond
	opts.RetuneDesign = policy.Optimized().String()
	return opts
}

// TestABTestTapeMatchesLive: an experiment whose experiment arms replay
// the control arms' tapes is identical to one that generates every arm
// live, at -j 1 and -j 2.
func TestABTestTapeMatchesLive(t *testing.T) {
	f := New(48, 13)
	control, experiment := core.BaselineConfig(), core.OptimizedConfig()
	var live ABResult
	forceLive(func() {
		var err error
		if live, err = f.ABTestErr(control, experiment, tapeABOptions(1)); err != nil {
			t.Fatal(err)
		}
	})
	for _, j := range []int{1, 2} {
		taped, err := f.ABTestErr(control, experiment, tapeABOptions(j))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, taped) {
			t.Fatalf("-j %d: taped ABResult differs from live:\nlive  %s\ntaped %s", j, live.Fleet, taped.Fleet)
		}
	}
}

// TestReplayRefusalRerunsLive: a fault plan on the experiment arm only
// makes its replays hit refused mallocs; each stopped replay is rerun
// live, so the experiment equals an all-live one.
func TestReplayRefusalRerunsLive(t *testing.T) {
	f := New(32, 17)
	opts := tapeABOptions(1)
	control, experiment := core.BaselineConfig(), core.OptimizedConfig()
	experiment.Faults = mem.FaultPlan{Seed: 3, MmapFailureRate: 0.05}

	var stopped int
	orig := runMachine
	defer func() { runMachine = orig }()
	runMachine = func(m Machine, cfg core.Config, wopts workload.Options, lc LifecycleOptions) (RunMetrics, *machine.Runtime, bool, error) {
		rm, rt, halted, err := orig(m, cfg, wopts, lc)
		if wopts.Replay != nil && wopts.Replay.Stopped() {
			stopped++
		}
		return rm, rt, halted, err
	}
	taped, err := f.ABTestErr(control, experiment, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stopped == 0 {
		t.Fatal("no replay hit a refused malloc; the fault plan does not exercise the fallback")
	}
	var live ABResult
	forceLive(func() {
		if live, err = f.ABTestErr(control, experiment, opts); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(live, taped) {
		t.Fatalf("after %d stopped replays, taped ABResult differs from live:\nlive  %s\ntaped %s",
			stopped, live.Fleet, taped.Fleet)
	}
}

// TestTapePoolIsBounded: the free list hands back the tapes put into it,
// most recent first, and keeps at most GOMAXPROCS of them.
func TestTapePoolIsBounded(t *testing.T) {
	var l tapeFreeList
	n := runtime.GOMAXPROCS(0)
	tapes := make([]*workload.Tape, n+2)
	for i := range tapes {
		tapes[i] = l.get()
	}
	for _, tp := range tapes {
		l.put(tp)
	}
	if len(l.free) != n {
		t.Fatalf("free list holds %d tapes, want the GOMAXPROCS bound %d", len(l.free), n)
	}
	if got := l.get(); got != tapes[n-1] {
		t.Fatal("get did not reuse the most recently kept tape")
	}
}
