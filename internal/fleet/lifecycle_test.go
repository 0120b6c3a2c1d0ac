package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/sched"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/workload"
)

func lifecycleABOptions(workers int) ABOptions {
	return ABOptions{
		SampleFraction: 0.1,
		MinMachines:    4,
		DurationNs:     15 * workload.Millisecond,
		TimeWarpGamma:  0.15,
		Workers:        workers,
		Telemetry:      telemetry.DefaultConfig(),
		HeapProfile:    heapprof.Config{Enabled: true, Seed: 0x5eed},
	}
}

// renderAB flattens every observable part of an ABResult into bytes so
// two results can be compared for bit-identity.
func renderAB(t *testing.T, res ABResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "fleet: %s\n", res.Fleet)
	for _, r := range res.PerApp {
		fmt.Fprintf(&buf, "app: %s\n", r)
	}
	fmt.Fprintf(&buf, "chaos: %+v\n", res.Chaos)
	if res.Telemetry != nil {
		if err := telemetry.WritePrometheus(&buf, res.Telemetry.Snapshots(0)...); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
	}
	if res.HeapProfiles != nil {
		profiles := append(append([]heapprof.Profile(nil), res.HeapProfiles.Control...),
			res.HeapProfiles.Experiment...)
		if err := heapprof.WriteText(&buf, profiles...); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
	}
	return buf.Bytes()
}

// TestFleetKillResumeBitIdentical is the acceptance criterion: kill
// every enrolled machine at 50% virtual time (checkpointing), resume,
// and require the finished experiment to be byte-identical to one that
// was never interrupted — at -j 1 and -j 4.
func TestFleetKillResumeBitIdentical(t *testing.T) {
	f := New(32, 0x5eed)
	control, experiment := core.BaselineConfig(), core.OptimizedConfig()

	want := func() []byte {
		res, err := f.ABTestErr(control, experiment, lifecycleABOptions(1))
		if err != nil {
			t.Fatalf("uninterrupted: %v", err)
		}
		return renderAB(t, res)
	}()

	for _, workers := range []int{1, 4} {
		dir := t.TempDir()

		killOpts := lifecycleABOptions(workers)
		killOpts.Checkpoint = CheckpointOptions{Dir: dir, EveryNs: 3 * workload.Millisecond, KillAtFrac: 0.5}
		_, err := f.ABTestErr(control, experiment, killOpts)
		if !errors.Is(err, ErrHalted) {
			t.Fatalf("j=%d: want ErrHalted, got %v", workers, err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
		if len(files) == 0 {
			t.Fatalf("j=%d: no checkpoints written", workers)
		}

		resumeOpts := lifecycleABOptions(workers)
		resumeOpts.Checkpoint = CheckpointOptions{Dir: dir, EveryNs: 3 * workload.Millisecond, Resume: true}
		res, err := f.ABTestErr(control, experiment, resumeOpts)
		if err != nil {
			t.Fatalf("j=%d resume: %v", workers, err)
		}
		if got := renderAB(t, res); !bytes.Equal(got, want) {
			t.Fatalf("j=%d: resumed experiment differs from uninterrupted (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestFleetResumeWithoutCheckpointsRunsFromScratch: Resume with an
// empty directory must simply run the experiment — and still match the
// uninterrupted result.
func TestFleetResumeWithoutCheckpointsRunsFromScratch(t *testing.T) {
	f := New(32, 0x5eed)
	control, experiment := core.BaselineConfig(), core.OptimizedConfig()
	base, err := f.ABTestErr(control, experiment, lifecycleABOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := lifecycleABOptions(2)
	opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), EveryNs: 5 * workload.Millisecond, Resume: true}
	res, err := f.ABTestErr(control, experiment, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAB(t, res), renderAB(t, base)) {
		t.Fatal("scratch-resume run differs from plain run")
	}
}

// TestFleetChurnDeterministicAcrossWorkers: machine churn (seeded kills
// with cold restarts) must fire, be counted, and produce identical
// results at any worker count.
func TestFleetChurnDeterministicAcrossWorkers(t *testing.T) {
	f := New(32, 0x5eed)
	control, experiment := core.BaselineConfig(), core.OptimizedConfig()
	run := func(workers int) ([]byte, ChaosStats) {
		opts := lifecycleABOptions(workers)
		opts.Churn = 0.6
		res, err := f.ABTestErr(control, experiment, opts)
		if err != nil {
			t.Fatalf("j=%d: %v", workers, err)
		}
		return renderAB(t, res), res.Chaos
	}
	seq, chaos := run(1)
	if chaos.Lifecycle.ChurnKills == 0 {
		t.Fatal("churn=0.6 never killed a machine")
	}
	if chaos.Lifecycle.Restarts != chaos.Lifecycle.ChurnKills {
		t.Fatalf("every churn kill should restart: %+v", chaos.Lifecycle)
	}
	par, _ := run(4)
	if !bytes.Equal(seq, par) {
		t.Fatal("churn run differs between -j 1 and -j 4")
	}

	// Churn must actually perturb the simulation (cold caches cost).
	plain, err := f.ABTestErr(control, experiment, lifecycleABOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(seq, renderAB(t, plain)) {
		t.Fatal("churn run identical to churn-free run")
	}
}

// TestMachineErrorNamesSeedAndTimestamp (satellite): a machine that
// exhausts its restart budget must fail the experiment with a
// MachineError carrying the machine's seed and the virtual timestamp of
// the failure, so the run is reproducible with -j 1.
func TestMachineErrorNamesSeedAndTimestamp(t *testing.T) {
	f := New(32, 0x5eed)
	opts := lifecycleABOptions(2)
	// A budget far below every profile's resident heap: the machine
	// OOMs immediately and every restart OOMs again.
	opts.Chaos = mem.FaultPlan{MappedBytesBudget: 32 << 20}
	opts.RestartOnOOM = true
	_, err := f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), opts)
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("want MachineError, got %v", err)
	}
	if me.Seed == 0 || me.App == "" {
		t.Fatalf("error must name the machine: %+v", me)
	}
	if me.VirtualNs < 0 {
		t.Fatalf("error must carry the virtual timestamp: %+v", me)
	}
	for _, want := range []string{"seed", "restart"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("error %q should mention %q", err, want)
		}
	}
}

// TestCheckpointFingerprintMismatchRejected: resuming under different
// run parameters must fail loudly, not silently diverge.
func TestCheckpointFingerprintMismatchRejected(t *testing.T) {
	f := New(32, 0x5eed)
	dir := t.TempDir()
	kill := lifecycleABOptions(1)
	kill.Checkpoint = CheckpointOptions{Dir: dir, KillAtFrac: 0.5}
	if _, err := f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), kill); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}

	resume := lifecycleABOptions(1)
	resume.DurationNs = 30 * workload.Millisecond // different run length
	resume.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
	_, err := f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), resume)
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("want MachineError for fingerprint mismatch, got %v", err)
	}
	if !bytes.Contains([]byte(me.Error()), []byte("different run")) {
		t.Fatalf("error should explain the mismatch: %v", me)
	}
}

// TestCheckpointCorruptionRejected: a truncated or bit-flipped blob
// must fail decode with an error, never a panic or a silent divergence.
func TestCheckpointCorruptionRejected(t *testing.T) {
	f := New(32, 0x5eed)
	dir := t.TempDir()
	kill := lifecycleABOptions(1)
	kill.Checkpoint = CheckpointOptions{Dir: dir, KillAtFrac: 0.5}
	if _, err := f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), kill); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) == 0 {
		t.Fatal("no checkpoints")
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x20
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	resume := lifecycleABOptions(1)
	resume.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
	_, err = f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), resume)
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("want MachineError for corrupted checkpoint, got %v", err)
	}
}

// TestFleetRetryResumesFromCheckpoint: with a retry policy, a machine
// run that fails transiently is re-driven — and the retry resumes from
// the machine's checkpoint (attempt > 0 forces Resume).
func TestFleetRetryResumesFromCheckpoint(t *testing.T) {
	orig := runMachine
	defer func() { runMachine = orig }()

	fails := map[string]bool{}
	sawResume := false
	runMachine = func(m Machine, cfg core.Config, opts workload.Options,
		lc LifecycleOptions) (RunMetrics, *machine.Runtime, bool, error) {
		key := fmt.Sprintf("m%d-%s", m.ID, lc.Arm)
		if m.ID == 0 && lc.Arm == "control" && !fails[key] {
			fails[key] = true
			return RunMetrics{}, nil, false, &MachineError{
				MachineID: m.ID, Seed: m.Seed, App: m.App.Name, VirtualNs: 1,
				Err: errors.New("transient infra failure"),
			}
		}
		if fails[key] && lc.Checkpoint.Resume {
			sawResume = true
		}
		return orig(m, cfg, opts, lc)
	}

	f := New(32, 0x5eed)
	opts := lifecycleABOptions(1)
	opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), EveryNs: 5 * workload.Millisecond}
	opts.Retry = sched.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	opts.RetrySleep = func(time.Duration) {}
	if _, err := f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), opts); err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if !sawResume {
		t.Fatal("retry attempt did not request checkpoint resume")
	}
}

// TestChurnTelemetryCarriesDeadProcesses: a churn-killed machine's
// telemetry must keep the counters of the process that died, as the
// daemon's carry registry does. The cumulative malloc count — the
// alloc_size_bytes histogram, which every malloc feeds — must cover
// every allocation the driver made across both processes, and the cold
// restart must add per-CPU misses rather than rewind them. (The mallocs
// gauge, like every gauge, describes the live process only.)
func TestChurnTelemetryCarriesDeadProcesses(t *testing.T) {
	m := New(32, 0x5eed).Machines[0]
	cfg := core.BaselineConfig()
	cfg.Telemetry = telemetry.Config{Enabled: true}
	opts := workload.DefaultOptions(m.Seed)
	opts.Duration = 20 * workload.Millisecond

	run := func(churn float64) (RunMetrics, telemetry.Snapshot) {
		rm, rt, halted, err := RunMachineLifecycle(m, cfg, opts, LifecycleOptions{Churn: churn, ChurnSeed: 1})
		if err != nil || halted {
			t.Fatalf("churn=%g: halted=%v err=%v", churn, halted, err)
		}
		ls := rt.Counters()
		if want := int64(churn); ls.ChurnKills != want || ls.Restarts != want {
			t.Fatalf("churn=%g: lifecycle %+v, want %d kill and restart", churn, ls, want)
		}
		return rm, rm.Telemetry.Snapshot("", opts.Duration)
	}
	counter := func(s telemetry.Snapshot, name string) int64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("no counter %s", name)
		return 0
	}
	churned, snap := run(1)
	var mallocs float64
	for _, h := range snap.Histograms {
		if h.Name == "alloc_size_bytes" {
			mallocs = h.Total
		}
	}
	if mallocs < float64(churned.Result.Ops) {
		t.Fatalf("telemetry counts %g mallocs for a run that made %d allocations", mallocs, churned.Result.Ops)
	}
	_, steady := run(0)
	if got, base := counter(snap, "percpu_miss_total"), counter(steady, "percpu_miss_total"); got <= base {
		t.Fatalf("cold restart should add per-CPU misses: churned %d <= steady %d", got, base)
	}
}
