package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"wsmalloc/internal/core"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/workload"
)

// CheckpointOptions configure crash tolerance for machine runs.
type CheckpointOptions struct {
	// Dir is where per-machine checkpoint blobs are written (one file
	// per machine per arm, atomically via rename). Empty disables
	// checkpointing entirely.
	Dir string
	// EveryNs is the virtual-time checkpoint cadence. 0 with a Dir
	// still checkpoints once at a scheduled kill.
	EveryNs int64
	// Resume loads each machine's checkpoint (when one exists) before
	// running, continuing bit-identically from where the blob left off.
	// Machines without a checkpoint start from the beginning.
	Resume bool
	// KillAtFrac, in (0, 1), halts every machine run at this fraction
	// of its virtual duration — after writing a final checkpoint — to
	// simulate a fleet-wide crash for the kill-and-resume smoke. The
	// run then returns ErrHalted.
	KillAtFrac float64
}

func (c CheckpointOptions) enabled() bool { return c.Dir != "" }

// LifecycleOptions model machine churn and OOM-kill/restart cycles for
// one machine run, plus the checkpoint plumbing.
type LifecycleOptions struct {
	Checkpoint CheckpointOptions
	// Arm distinguishes the control and experiment blobs of one
	// machine ("control", "experiment", or "single").
	Arm string
	// Design is the arm's design-point string; folded into the
	// checkpoint fingerprint so a resume under a different design is
	// rejected instead of silently diverging.
	Design string
	// Churn is the probability that this machine suffers one kill at a
	// seeded, uniformly-placed point of the run; the machine restarts
	// cold (caches and heap lost, workload position kept).
	Churn float64
	// ChurnSeed decorrelates churn schedules between runs; it is mixed
	// with the machine seed so each machine fails at its own
	// reproducible point.
	ChurnSeed uint64
	// RestartOnOOM turns an allocator refusal (typically the fault
	// plan's mapped-byte budget) into an OOM-kill/restart cycle
	// instead of a dropped op.
	RestartOnOOM bool
}

// maxRestarts bounds combined churn+OOM restarts per run; a machine
// that dies more often than this is wedged (e.g. budget below the
// resident heap), so it is declared unhealthy and the run fails with a
// MachineError rather than looping forever.
const maxRestarts = 16

// Enabled reports whether the run checkpoints, churns or restarts on
// OOM — anything beyond a plain machine run.
func (lc LifecycleOptions) Enabled() bool {
	return lc.Checkpoint.enabled() || lc.Churn > 0 || lc.RestartOnOOM
}

// LifecycleStats count machine-lifecycle events over one or more runs:
// scheduled-churn and budget-triggered (OOM) kills, and the cold
// restarts that followed (every kill restarts unless the run was out of
// restart budget). Fleet runs have no fault bursts.
type LifecycleStats = machine.Counters

// ErrHalted marks a run that stopped at a scheduled kill after writing
// its checkpoint — the expected outcome of a KillAtFrac run, resumable
// with CheckpointOptions.Resume.
var ErrHalted = errors.New("fleet: run halted at checkpoint (re-run with resume to continue)")

// MachineError names the machine and virtual timestamp of a mid-run
// failure, so any fleet failure is reproducible with -j 1 and the
// machine's seed. VirtualNs is -1 when the failure point is unknown
// (e.g. a panic captured outside the driver loop).
type MachineError struct {
	MachineID int
	Seed      uint64
	App       string
	VirtualNs int64
	Err       error
}

func (e *MachineError) Error() string {
	when := "t=unknown"
	if e.VirtualNs >= 0 {
		when = fmt.Sprintf("t=%dns", e.VirtualNs)
	}
	return fmt.Sprintf("fleet: machine %d (seed %#x, app %s, %s): %v",
		e.MachineID, e.Seed, e.App, when, e.Err)
}

func (e *MachineError) Unwrap() error { return e.Err }

// runAccum is the time-averaging state RunMachineOpts keeps across
// snapshot callbacks. It is part of the machine's resumable state: a
// resumed run must produce the same averages as an uninterrupted one.
type runAccum struct {
	heapSum, cacheSum, snaps int64
	covSum                   float64
}

func (ac *runAccum) observe(a *core.Allocator) {
	st := a.Stats()
	ac.heapSum += st.HeapBytes
	ac.cacheSum += st.FrontEnd.CachedBytes + st.Transfer.CachedBytes
	ac.covSum += st.HugepageCoverage
	ac.snaps++
}

// fingerprint is the stable identity of one machine-arm run. A resume
// whose fingerprint disagrees with the blob's is rejected: the blob
// belongs to a different machine, arm, duration, design, or fault
// plan, and overlaying it would silently break determinism.
func runFingerprint(m Machine, cfg core.Config, duration int64, lc LifecycleOptions) string {
	return fmt.Sprintf("machine=%d seed=%#x platform=%s app=%s duration=%d arm=%s design=%q faults=%d:%g:%d churn=%g:%#x",
		m.ID, m.Seed, m.Platform.Name, m.App.Name, duration, lc.Arm, lc.Design,
		cfg.Faults.Seed, cfg.Faults.MmapFailureRate, cfg.Faults.MappedBytesBudget,
		lc.Churn, lc.ChurnSeed)
}

// runState is the fleet policy state a blob carries beside the
// runtime's: run identity, time averages, the pending churn kill.
type runState struct {
	fp           string
	ac           runAccum
	pendingChurn int64
}

func (s *runState) encode(rt *machine.Runtime) []byte {
	var e snapshot.Encoder
	e.Section("fleet.machine")
	e.String(s.fp)
	e.I64(s.ac.heapSum)
	e.I64(s.ac.cacheSum)
	e.I64(s.ac.snaps)
	e.F64(s.ac.covSum)
	e.I64(s.pendingChurn)
	rt.EncodeState(&e)
	return e.Finish()
}

func (s *runState) decode(blob []byte, rt *machine.Runtime) error {
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		return err
	}
	dec.Section("fleet.machine")
	if got := dec.String(); dec.Err() == nil && got != s.fp {
		return fmt.Errorf("checkpoint belongs to a different run:\n  blob: %s\n  want: %s", got, s.fp)
	}
	s.ac.heapSum = dec.I64()
	s.ac.cacheSum = dec.I64()
	s.ac.snaps = dec.I64()
	s.ac.covSum = dec.F64()
	s.pendingChurn = dec.I64()
	return rt.DecodeState(dec)
}

// churnSchedule decides, from seeds alone, whether and when this
// machine is churn-killed: one uniformly-placed kill with probability
// lc.Churn. Deterministic per (machine seed, churn seed).
func churnSchedule(m Machine, duration int64, lc LifecycleOptions) int64 {
	if lc.Churn <= 0 {
		return 0
	}
	cr := rng.New(m.Seed ^ lc.ChurnSeed ^ 0x9e3779b97f4a7c15)
	if !cr.Bool(lc.Churn) {
		return 0
	}
	return 1 + int64(cr.Float64()*float64(duration-1))
}

// RunMachineLifecycle executes one machine run on the machine runtime
// under the fleet's policy: one seeded churn kill, an optional
// KillAtFrac halt, and a restart budget for the whole run. It returns
// the runtime it ran (nil on error), whose Counters are the run's
// lifecycle counts and whose Alloc is the final process, and
// halted=true (with no error) when a KillAtFrac kill stopped the run
// after checkpointing; the same call with Checkpoint.Resume set finishes
// it bit-identically to a run that was never killed. With zero
// LifecycleOptions it is a plain machine run (RunMachineOpts).
func RunMachineLifecycle(m Machine, cfg core.Config, opts workload.Options,
	lc LifecycleOptions) (RunMetrics, *machine.Runtime, bool, error) {
	duration := opts.Duration
	fail := func(at int64, err error) (RunMetrics, *machine.Runtime, bool, error) {
		return RunMetrics{}, nil, false, &MachineError{
			MachineID: m.ID, Seed: m.Seed, App: m.App.Name, VirtualNs: at, Err: err,
		}
	}

	var rt *machine.Runtime // callbacks reach the allocator through rt, which follows restarts
	st := runState{pendingChurn: churnSchedule(m, duration, lc)}
	opts.SnapshotEveryNs = duration / 50
	opts.Snapshot = func(int64) { st.ac.observe(rt.Alloc()) }
	opts.HaltOnAllocFailure = opts.HaltOnAllocFailure || lc.RestartOnOOM
	killAt := int64(0)
	if f := lc.Checkpoint.KillAtFrac; f > 0 && f < 1 {
		killAt = int64(f * float64(duration))
	}

	ckptPath := ""
	var ckptErr error
	if lc.Checkpoint.enabled() {
		st.fp = runFingerprint(m, cfg, duration, lc)
		ckptPath = filepath.Join(lc.Checkpoint.Dir, fmt.Sprintf("m%04d-%s.ckpt", m.ID, lc.Arm))
		opts.CheckpointEveryNs = lc.Checkpoint.EveryNs
		opts.Checkpoint = func(int64) {
			if ckptErr == nil {
				ckptErr = snapshot.WriteFileAtomic(ckptPath, st.encode(rt))
			}
		}
	}
	rt = machine.New(m, cfg, opts)

	if lc.Checkpoint.enabled() && lc.Checkpoint.Resume {
		if blob, err := os.ReadFile(ckptPath); err == nil {
			if err := st.decode(blob, rt); err != nil {
				return fail(-1, fmt.Errorf("restoring checkpoint %s: %w", ckptPath, err))
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return fail(-1, fmt.Errorf("reading checkpoint %s: %w", ckptPath, err))
		}
	}

	unhealthy := func(c LifecycleStats) (RunMetrics, *machine.Runtime, bool, error) {
		return fail(rt.Driver().Now(), fmt.Errorf("machine unhealthy: %d restarts (churn=%d, oom=%d) exhausted the restart budget",
			c.Restarts, c.ChurnKills, c.OOMKills))
	}
	var res workload.Result
	for {
		// Halt at the earliest pending kill.
		until := st.pendingChurn
		if killAt > 0 && (until == 0 || killAt < until) {
			until = killAt
		}
		var capped bool
		res, capped = rt.RunUntil(until, int(maxRestarts-rt.Counters().Restarts))
		if ckptErr != nil {
			return fail(rt.Driver().Now(), fmt.Errorf("writing checkpoint %s: %w", ckptPath, ckptErr))
		}
		c := rt.Counters()
		if capped {
			c.OOMKills++
			return unhealthy(c)
		}
		if d := rt.Driver(); !d.Halted() || d.HaltReason() != workload.HaltTimer {
			break
		}
		if st.pendingChurn == 0 || rt.Driver().Now() < st.pendingChurn {
			// KillAtFrac: the whole run stops here, checkpointed.
			return RunMetrics{}, rt, true, nil
		}
		// Scheduled churn: the machine dies and is repaired.
		if c.Restarts >= maxRestarts {
			c.ChurnKills++
			return unhealthy(c)
		}
		st.pendingChurn = 0
		rt.RestartCold(machine.Churn)
	}
	return finishRunMetrics(m, rt, res, &st.ac), rt, false, nil
}

// finishRunMetrics derives the RunMetrics summary from a completed run.
func finishRunMetrics(m Machine, rt *machine.Runtime, res workload.Result, ac *runAccum) RunMetrics {
	st := res.Stats
	alloc := rt.Alloc()
	rm := RunMetrics{App: m.App.Name, Result: res}
	if alloc.Telemetry() != nil {
		// The fold carries the counters of every process that died on the
		// machine, so a restart never rewinds them.
		rm.Telemetry = telemetry.NewRegistry()
		rt.FoldTelemetry(rm.Telemetry)
	}
	rm.HeapProfiles = alloc.HeapProfiles("")
	rm.Frag = alloc.FragZ()
	if ac.snaps > 0 {
		rm.AvgHeapBytes = ac.heapSum / ac.snaps
		rm.CacheBytes = ac.cacheSum / ac.snaps
		rm.Coverage = ac.covSum / float64(ac.snaps)
	} else {
		rm.AvgHeapBytes = st.HeapBytes
		rm.CacheBytes = st.FrontEnd.CachedBytes + st.Transfer.CachedBytes
		rm.Coverage = st.HugepageCoverage
	}
	// Cross-domain share of *reused* objects: cold objects come from
	// spans (DRAM) and miss regardless of domain.
	reuse := st.Transfer.IntraDomain + st.Transfer.InterDomain
	if reuse > 0 {
		rm.InterDomainShare = float64(st.Transfer.InterDomain) / float64(reuse)
	}
	return rm
}
