package experiments

import (
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// lifecycleWindow is one per-window sample of the recovery metrics: the
// front-end miss rate and the fragmentation ratio over that window of
// virtual time.
type lifecycleWindow struct {
	endNs      int64
	missRate   float64 // per-CPU alloc misses / allocs within the window
	fragRatio  float64 // end-of-window fragmentation ratio (Fig. 5b metric)
	epoch      int     // number of restarts before this window
	firstAfter bool    // first complete window after a restart
}

// Lifecycle is the "lifecycle" experiment: a machine running the fleet
// profile is OOM-killed by a mapped-byte budget and restarted in place.
// The restarted process loses its heap and caches but keeps its workload
// position, so the experiment can measure the cost of the cold start:
// the per-CPU cache miss rate spikes while caches refill, and the
// fragmentation ratio shifts as the heap is rebuilt from a clean page
// heap. Explicit expectations: the kill must fire, the first post-restart
// window must show a colder front end than warm steady state, and the
// miss rate must recover to near steady state before the run ends.
func Lifecycle(seed uint64, scale Scale) Report {
	rep := Report{
		ID:    "lifecycle",
		Title: "OOM-kill/restart recovery: cold-cache miss rate and fragmentation",
		PaperClaim: "warehouse machines are killed and restarted daily (OOM, repair, churn); " +
			"a restart loses every cache tier, so the front-end miss rate spikes and then " +
			"recovers as per-CPU caches refill",
	}

	cfg := core.OptimizedConfig()
	// The budget sits between the fleet profile's 1 GiB resident preload
	// and its warm-run mapped peak, so the machine preloads fine and is
	// OOM-killed mid-run once the heap grows past the budget.
	cfg.Faults = mem.FaultPlan{MappedBytesBudget: 1100 << 20}
	dur := scale.duration(60 * workload.Millisecond)
	windowNs := dur / 24

	opts := workload.DefaultOptions(seed)
	opts.Duration = dur
	opts.HaltOnAllocFailure = true

	var (
		rt        *machine.Runtime
		windows   []lifecycleWindow
		killNs    int64 = -1
		lastMiss  int64
		lastAlloc int64
	)
	justRestarted := false
	opts.Snapshot = func(now int64) {
		st := rt.Alloc().Stats()
		misses, allocs := st.FrontEnd.AllocMisses, st.Mallocs
		dm, da := misses-lastMiss, allocs-lastAlloc
		lastMiss, lastAlloc = misses, allocs
		if da <= 0 {
			return // empty window; keep justRestarted for the next one
		}
		windows = append(windows, lifecycleWindow{
			endNs:      now,
			missRate:   float64(dm) / float64(da),
			fragRatio:  st.FragmentationRatio(),
			epoch:      int(rt.Counters().Restarts),
			firstAfter: justRestarted,
		})
		justRestarted = false
	}
	opts.SnapshotEveryNs = windowNs

	// Every OOM kill restarts the machine in place: heap and caches gone,
	// same workload cursor, counters back to zero with the allocator.
	rt = machine.New(machine.Desc{Platform: topology.Default(), App: workload.Fleet(), Seed: seed}, cfg, opts)
	rt.OnRestart = func(_ machine.Kill, now int64) {
		if killNs < 0 {
			killNs = now
		}
		lastMiss, lastAlloc = 0, 0
		justRestarted = true
	}
	const maxRestarts = 24
	res, capped := rt.RunUntil(0, maxRestarts)
	if capped {
		rep.Failed = true
		rep.addf("FAIL: machine still OOM-looping after %d restarts", maxRestarts)
		return rep
	}
	restarts := int(rt.Counters().Restarts)
	d := rt.Driver()

	// The budget trips early in the run (mapped bytes are front-loaded by
	// the preload and initial cache fill), so warm steady state is the
	// *recovered* tail: the later windows of the final restart epoch,
	// after caches have refilled. Cold windows are the first sampled
	// window after each restart.
	var colds, finalWins []lifecycleWindow
	for _, w := range windows {
		if w.firstAfter {
			colds = append(colds, w)
		}
		if w.epoch == restarts && !w.firstAfter {
			finalWins = append(finalWins, w)
		}
	}
	tail := finalWins[len(finalWins)/2:]

	rep.addf("run: %d windows of %.1fms, %d OOM kill(s)/restart(s), first kill at t=%.1fms",
		len(windows), float64(windowNs)/1e6, restarts, float64(killNs)/1e6)
	rep.addf("workload position kept: %d ops completed, %d alloc failures absorbed",
		res.Ops, res.AllocFailures)

	avg := func(ws []lifecycleWindow, f func(lifecycleWindow) float64) float64 {
		var s float64
		for _, w := range ws {
			s += f(w)
		}
		return s / float64(len(ws))
	}

	switch {
	case restarts == 0:
		rep.Failed = true
		rep.addf("FAIL: the mapped-byte budget never OOM-killed the machine")
	case d.Halted():
		rep.Failed = true
		rep.addf("FAIL: run did not complete (halted at t=%.1fms)", float64(d.Now())/1e6)
	case len(colds) == 0 || len(tail) < 2:
		rep.Failed = true
		rep.addf("FAIL: not enough windows to compare cold vs recovered state "+
			"(cold=%d, tail=%d)", len(colds), len(tail))
	default:
		missRate := func(w lifecycleWindow) float64 { return w.missRate }
		fragRatio := func(w lifecycleWindow) float64 { return w.fragRatio }
		coldMiss, coldFrag := avg(colds, missRate), avg(colds, fragRatio)
		tailMiss, tailFrag := avg(tail, missRate), avg(tail, fragRatio)
		rep.addf("cold post-restart:   miss rate %6.3f%%  fragmentation %5.1f%%  (%d windows)",
			coldMiss*100, coldFrag*100, len(colds))
		rep.addf("recovered steady:    miss rate %6.3f%%  fragmentation %5.1f%%  (%d windows)",
			tailMiss*100, tailFrag*100, len(tail))

		if coldMiss <= tailMiss {
			rep.Failed = true
			rep.addf("FAIL: post-restart windows no colder than recovered steady state "+
				"(%.4f <= %.4f)", coldMiss, tailMiss)
		} else {
			rep.addf("PASS: cold start costs %.1fx the steady-state miss rate",
				coldMiss/tailMiss)
		}

		// Recovery speed: how many windows of the final epoch pass before
		// the miss rate first comes within 1.5x of the recovered average.
		recovered := -1
		for i, w := range finalWins {
			if w.missRate <= tailMiss*1.5 {
				recovered = i
				break
			}
		}
		if recovered < 0 {
			rep.Failed = true
			rep.addf("FAIL: miss rate never recovered to within 1.5x of steady state "+
				"(%d final-epoch windows)", len(finalWins))
		} else {
			w := finalWins[recovered]
			rep.addf("PASS: miss rate recovered to %6.3f%% within %d window(s) of the last restart (t=%.1fms)",
				w.missRate*100, recovered+1, float64(w.endNs)/1e6)
		}
	}
	return rep
}

// ChurnFleet is the "churn" experiment: a fleet A/B where a seeded
// fraction of the enrolled machines is killed once mid-run and restarted
// cold (machine churn / repair). The experiment asserts the lifecycle
// machinery itself: kills fire at the configured rate, every kill is
// followed by a restart, and the A/B delta is still measured over the
// full population — churn must degrade a machine's caches, not the
// experiment's determinism.
func ChurnFleet(seed uint64, scale Scale) Report {
	rep := Report{
		ID:    "churn",
		Title: "fleet A/B under machine churn with cold restarts",
		PaperClaim: "fleet experiments run for days across machines that are repaired, " +
			"preempted and rescheduled; A/B results must be insensitive to which worker " +
			"re-runs a churned machine",
	}
	f := fleet.New(64, seed)
	opts := fleet.DefaultABOptions()
	opts.MinMachines = 8
	opts.DurationNs = scale.duration(60 * workload.Millisecond)
	opts.Churn = 0.5

	run := func(workers int) (fleet.ABResult, error) {
		o := opts
		o.Workers = workers
		return f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), o)
	}
	seq, err := run(1)
	if err != nil {
		rep.Failed = true
		rep.addf("FAIL: churn run errored: %v", err)
		return rep
	}
	lc := seq.Chaos.Lifecycle
	rep.addf("churn 50%%: %d kills, %d restarts across both arms", lc.ChurnKills, lc.Restarts)
	rep.addf("fleet delta under churn: %s", seq.Fleet.String())

	if lc.ChurnKills == 0 {
		rep.Failed = true
		rep.addf("FAIL: churn never killed a machine")
	}
	if lc.Restarts != lc.ChurnKills {
		rep.Failed = true
		rep.addf("FAIL: kills (%d) != restarts (%d)", lc.ChurnKills, lc.Restarts)
	}
	par, err := run(4)
	if err != nil {
		rep.Failed = true
		rep.addf("FAIL: parallel churn run errored: %v", err)
		return rep
	}
	if seq.Fleet != par.Fleet || seq.Chaos != par.Chaos {
		rep.Failed = true
		rep.addf("FAIL: churn result differs between -j 1 and -j 4")
	} else {
		rep.addf("PASS: churn run bit-identical at -j 1 and -j 4")
	}
	return rep
}
