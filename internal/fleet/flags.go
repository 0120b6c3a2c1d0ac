package fleet

import (
	"errors"
	"flag"
)

// LifecycleFlags are the crash-tolerance and machine-lifecycle flags of
// the one-shot CLIs (fleet-ab, wsmalloc-sim), defined once so both
// spell, default and validate them alike.
type LifecycleFlags struct {
	lc      LifecycleOptions
	everyMs int64
}

// BindLifecycleFlags defines -checkpoint-dir, -checkpoint-every-ms,
// -resume, -kill-frac, -churn and -restart-on-oom on fs.
func BindLifecycleFlags(fs *flag.FlagSet) *LifecycleFlags {
	f := &LifecycleFlags{}
	fs.StringVar(&f.lc.Checkpoint.Dir, "checkpoint-dir", "", "directory for per-machine checkpoints (enables crash-tolerant runs)")
	fs.Int64Var(&f.everyMs, "checkpoint-every-ms", 0, "virtual checkpoint cadence in ms (0 = duration/4; needs -checkpoint-dir)")
	fs.BoolVar(&f.lc.Checkpoint.Resume, "resume", false, "resume every machine from its checkpoint in -checkpoint-dir")
	fs.Float64Var(&f.lc.Checkpoint.KillAtFrac, "kill-frac", 0, "kill every machine at this fraction of virtual time after checkpointing (exit code 3; needs -checkpoint-dir)")
	fs.Float64Var(&f.lc.Churn, "churn", 0, "probability each machine run is killed once mid-run and restarted cold (machine churn)")
	fs.BoolVar(&f.lc.RestartOnOOM, "restart-on-oom", false, "OOM-kill and restart a machine on allocation failure instead of dropping the op (pair with a fault budget, e.g. fleet-ab -chaos-budget-mb)")
	return f
}

// Options returns the parsed flags as LifecycleOptions for runs of
// durationNs virtual time: the checkpoint cadence defaults to a quarter
// of the run, and -resume or -kill-frac without -checkpoint-dir is an
// error. Arm, Design and ChurnSeed are the caller's to fill.
func (f *LifecycleFlags) Options(durationNs int64) (LifecycleOptions, error) {
	lc := f.lc
	if lc.Checkpoint.Dir == "" {
		if lc.Checkpoint.Resume || lc.Checkpoint.KillAtFrac > 0 {
			return lc, errors.New("-resume and -kill-frac need -checkpoint-dir")
		}
		return lc, nil
	}
	if lc.Checkpoint.EveryNs = f.everyMs * 1_000_000; lc.Checkpoint.EveryNs == 0 {
		lc.Checkpoint.EveryNs = durationNs / 4
	}
	return lc, nil
}
