// Command fleet-ab runs a fleet-wide A/B experiment comparing two
// allocator configurations across a synthetic machine population, the
// §2.2 experimentation framework.
//
// Usage:
//
//	fleet-ab [-machines 400] [-feature all|<name>] [-seed 1]
//	         [-duration-ms 250] [-sample 0.01] [-j N]
//	         [-chaos-mmap-rate 0] [-chaos-budget-mb 0] [-audit-every-ms 0]
//	         [-telemetry] [-heapprof] [-metrics-out BASE] [-serve :8080]
//	         [-checkpoint-dir DIR] [-checkpoint-every-ms N] [-resume]
//	         [-kill-frac 0.5] [-churn 0.1] [-restart-on-oom] [-retries 3]
//	         [-design tier=policy,...] [-retune-at-ms N -retune-design D]
//	         [-gwp-dir DIR]
//
// -j bounds how many enrolled machines are simulated concurrently
// (default: all cores; -j 1 is the sequential legacy path). Results are
// bit-identical at any -j for the same seed.
//
// The chaos flags install a deterministic per-machine fault plan in every
// enrolled run (seeded mmap failures and/or a committed-byte budget);
// -audit-every-ms runs the allocator invariant auditor at that virtual
// cadence. The command prints the chaos/audit summary and exits non-zero
// if any audit reported violations.
//
// -telemetry instruments every enrolled machine run and merges both
// arms' metrics registries deterministically (the export is
// byte-identical at any -j). -heapprof attaches the sampled heap
// profiler to every enrolled run and merges each arm's heapz / allocz /
// peakheapz views deterministically, for A/B profile diffing with
// cmd/profdiff. -metrics-out writes BASE.prom, BASE.json and
// BASE.mallocz (plus BASE.heapz and BASE.heapz.json with -heapprof);
// -serve keeps the process alive serving /metricsz and /heapz over
// HTTP.
//
// The lifecycle flags make the run crash-tolerant. -checkpoint-dir
// snapshots every machine's full state (workload cursor, clock, all
// cache tiers, fault/telemetry accumulators) at the -checkpoint-every-ms
// virtual cadence; -kill-frac stops the whole run at that fraction of
// virtual time after a final checkpoint and exits with code 3; a second
// invocation with -resume finishes the run with exports byte-identical
// to one that was never interrupted, at any -j. -churn kills a seeded
// fraction of machines once mid-run and restarts them cold; a restarted
// machine loses its heap and caches but keeps its workload position.
// -restart-on-oom does the same when an allocation fails (pair with
// -chaos-budget-mb for deterministic OOM kills). -retries re-runs a
// failed machine with capped exponential backoff, resuming from its
// checkpoint.
//
// The shared flags (seed, duration, design, retune, observability,
// profiles, lifecycle) are wsmalloc-sim's too: both bind one run spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"wsmalloc"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/gwp"
	"wsmalloc/internal/profiling"
)

func main() {
	machines := flag.Int("machines", 400, "fleet size")
	feature := flag.String("feature", "all",
		"all (full redesign) or one of: heterogeneous-percpu-cache, nuca-transfer-cache, span-prioritization, lifetime-aware-filler")
	sample := flag.Float64("sample", 0.01, "fraction of machines enrolled (paper: 1%)")
	chaosRate := flag.Float64("chaos-mmap-rate", 0, "injected mmap failure probability per MapHuge (0 disables)")
	chaosBudgetMB := flag.Int64("chaos-budget-mb", 0, "per-machine committed-byte budget in MiB (0 = unlimited)")
	auditEveryMs := flag.Int64("audit-every-ms", 0, "virtual cadence of invariant audits (0 disables)")
	gwpDir := flag.String("gwp-dir", "", "write both arms into a gwp profile warehouse at this directory (raw-00000000=control, raw-00000001=experiment; needs -heapprof)")
	workers := flag.Int("j", 0, "concurrent machine simulations (0 = all cores, 1 = sequential)")
	retries := flag.Int("retries", 1, "max attempts per machine run; retries resume from the machine's checkpoint")
	runFlags := fleet.BindRunFlags(flag.CommandLine, 250)
	flag.Parse()
	profiling.TuneGC()

	rs, err := runFlags.Spec()
	if err != nil {
		exit(2, err)
	}
	stopProfiling, err := profiling.Start(rs.CPUProfile, rs.MemProfile)
	if err != nil {
		exit(2, err)
	}
	defer stopProfiling()

	// Both arms carry their full design-point strings into the merged
	// telemetry and heap-profile exports, so profdiff and dashboards can
	// identify an arm without knowing which -feature/-design spawned it.
	armDesc := "feature=" + *feature
	if rs.DesignSet {
		armDesc = "design=" + rs.Design.String()
	} else {
		// -feature names one of the paper's four redesigns (the design
		// shorthands other than the two endpoints), or "all" for the full
		// redesign.
		spec := *feature
		if spec == "all" {
			spec = "optimized"
		} else if spec == "baseline" || spec == "optimized" || !wsmalloc.IsDesignShorthand(spec) {
			exit(2, fmt.Errorf("unknown feature %q", *feature))
		}
		if rs.Design, rs.Config, err = fleet.ResolveDesign(spec); err != nil {
			exit(2, err)
		}
	}

	f := wsmalloc.NewFleet(*machines, rs.Seed)
	opts := wsmalloc.DefaultABOptions()
	opts.SampleFraction = *sample
	opts.DurationNs = rs.DurationNs()
	opts.Chaos = wsmalloc.FaultPlan{
		Seed:              rs.Seed ^ 0xc4a05c4a,
		MmapFailureRate:   *chaosRate,
		MappedBytesBudget: *chaosBudgetMB << 20,
	}
	opts.AuditEveryNs = *auditEveryMs * 1_000_000
	opts.Workers = *workers
	opts.Checkpoint = rs.Lifecycle.Checkpoint
	opts.Churn = rs.Lifecycle.Churn
	opts.RestartOnOOM = rs.Lifecycle.RestartOnOOM
	if *retries > 1 {
		opts.Retry = wsmalloc.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   250 * time.Millisecond,
			MaxDelay:    5 * time.Second,
		}
	}
	opts.ControlDesign = wsmalloc.BaselineDesign().String()
	opts.ExperimentDesign = rs.Design.String()
	opts.RetuneAtNs, opts.RetuneDesign = rs.RetuneAtNs, rs.RetuneDesign
	if rs.Telemetry {
		// Per-machine trace rings are not aggregated across a fleet, so
		// leave them off and keep only the mergeable registries.
		opts.Telemetry = wsmalloc.TelemetryConfig{Enabled: true}
	}
	opts.HeapProfile = rs.HeapProfile
	if *gwpDir != "" && !rs.HeapProfile.Enabled {
		exit(2, errors.New("-gwp-dir needs -heapprof"))
	}

	fmt.Printf("fleet A/B: %d machines, %s, %.1f%% sampled, %dms virtual each\n",
		*machines, armDesc, *sample*100, rs.DurationMs)
	fmt.Printf("  control    %s\n  experiment %s\n", opts.ControlDesign, opts.ExperimentDesign)
	res, err := f.ABTestErr(wsmalloc.Baseline(), rs.Config, opts)
	if err != nil {
		if errors.Is(err, wsmalloc.ErrHalted) {
			// Scheduled kill: every machine checkpointed. Exit code 3 so
			// wrappers can distinguish "resume me" from a real failure.
			fmt.Println(err)
			os.Exit(3)
		}
		exit(1, err)
	}
	fmt.Println(res.Fleet.String())
	for _, row := range res.PerApp {
		fmt.Println(row.String())
	}
	ch := res.Chaos
	if lc := ch.Lifecycle; lc.ChurnKills+lc.OOMKills+lc.Restarts > 0 {
		fmt.Printf("lifecycle: %d churn kills, %d OOM kills, %d restarts\n",
			lc.ChurnKills, lc.OOMKills, lc.Restarts)
	}
	if opts.Chaos.Enabled() {
		fmt.Printf("chaos: %d mmap failures + %d budget rejections injected; %d OOMs, %d ops dropped, %d pressure releases (%d MiB returned)\n",
			ch.InjectedFailures, ch.BudgetFailures, ch.OOMErrors, ch.AllocFailures,
			ch.PressureEvents, ch.PressureReleasedBytes>>20)
	}
	if opts.AuditEveryNs > 0 {
		fmt.Printf("audit: %d runs, %d violations\n", ch.Audits, ch.Violations)
		if ch.Violations > 0 {
			os.Exit(1)
		}
	}

	var x fleet.RunExport
	if res.Telemetry != nil {
		x.Snapshots = res.Telemetry.Snapshots(opts.DurationNs)
	}
	if res.HeapProfiles != nil {
		// Both arms' merged profiles in one export, control first, so
		// profdiff can split them by label.
		x.Profiles = append(append(x.Profiles, res.HeapProfiles.Control...), res.HeapProfiles.Experiment...)
	}
	if err := rs.Export(os.Stdout, x); err != nil {
		exit(1, err)
	}

	// One warehouse window per arm: gwpquery then answers CDF, frag and
	// window-vs-window profdiff queries over a standalone fleet run with
	// the same tooling the daemon's continuous collection feeds.
	if *gwpDir != "" && res.HeapProfiles != nil {
		fp := fmt.Sprintf("fleet-ab seed=%#x machines=%d sample=%g duration=%d control=%q experiment=%q",
			rs.Seed, *machines, *sample, opts.DurationNs, opts.ControlDesign, opts.ExperimentDesign)
		wh, err := gwp.Open(*gwpDir, fp, gwp.DefaultRetention(), false)
		if err != nil {
			exit(1, err)
		}
		for _, arm := range []struct {
			idx    int64
			design string
			prof   []wsmalloc.HeapProfile
			frag   wsmalloc.FragZ
		}{
			{0, opts.ControlDesign, res.HeapProfiles.Control, res.Frag.Control},
			{1, opts.ExperimentDesign, res.HeapProfiles.Experiment, res.Frag.Experiment},
		} {
			win := &gwp.Window{
				Meta: gwp.WindowMeta{
					ID: gwp.WindowID(gwp.TierRaw, arm.idx), Tier: gwp.TierRaw, Index: arm.idx,
					EndNs: opts.DurationNs, Design: arm.design,
					Machines: res.Fleet.Machines, Sources: 1,
				},
				Frag:     arm.frag,
				Profiles: arm.prof,
			}
			if err := wh.Append(win); err != nil {
				exit(1, err)
			}
		}
		fmt.Printf("wrote gwp warehouse %s (raw-00000000=control, raw-00000001=experiment)\n", *gwpDir)
	}

	if rs.ServeAddr != "" {
		err := rs.Serve(os.Stdout, "fleet-ab", x, map[string]any{
			"arm":      armDesc,
			"machines": *machines,
			"sample":   *sample,
			"arms":     len(x.Snapshots),
		})
		if err != nil {
			exit(1, err)
		}
	}
}

// exit reports err and exits with code: 2 for usage, 1 for a failure.
func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}
