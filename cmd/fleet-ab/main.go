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
//	         [-bench-sweep 1,2,4,max] [-bench-out BENCH_fleet.json]
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
// -bench-sweep benchmarks the execution engine instead of printing
// tables: it runs the same A/B once per listed -j value ("max" = all
// cores), verifies each parallel result is bit-identical to -j 1, and
// writes machines/sec plus speedup-vs-j1 to -bench-out as JSON
// (scripts/bench_fleet.sh wraps this).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wsmalloc"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/gwp"
	"wsmalloc/internal/profiling"
)

// benchEntry is one sweep point of the engine benchmark.
type benchEntry struct {
	J              int     `json:"j"`
	WallMs         float64 `json:"wall_ms"`
	MachinesPerSec float64 `json:"machines_per_sec"`
	SpeedupVsJ1    float64 `json:"speedup_vs_j1"`
	IdenticalToJ1  bool    `json:"identical_to_j1"`
}

// benchDoc is the BENCH_fleet.json schema.
type benchDoc struct {
	Benchmark         string       `json:"benchmark"`
	FleetMachines     int          `json:"fleet_machines"`
	EnrolledMachines  int          `json:"enrolled_machines"`
	RunsPerMachine    int          `json:"runs_per_machine"`
	VirtualDurationMs int64        `json:"virtual_duration_ms"`
	Seed              uint64       `json:"seed"`
	NumCPU            int          `json:"num_cpu"`
	Sweep             []benchEntry `json:"sweep"`
}

// fingerprint renders an ABResult canonically for the bench
// divergence check: the value-typed rows and chaos stats via %#v, the
// telemetry arms via the byte-stable Prometheus export, and the heap
// profile arms via the pprof text export. Unlike %#v over the whole
// struct, this stays equal across runs whose results are semantically
// identical even though the registries and profile slices live at
// different addresses — so -bench-sweep exercises exactly the
// instrumentation the real experiment would run with.
func fingerprint(res wsmalloc.ABResult, nowNs int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#v\n%#v\n%#v\n", res.Fleet, res.PerApp, res.Chaos)
	if res.Telemetry != nil {
		_ = wsmalloc.WriteTelemetryPrometheus(&b, res.Telemetry.Snapshots(nowNs)...)
	}
	if res.HeapProfiles != nil {
		_ = wsmalloc.WriteHeapProfiles(&b, res.HeapProfiles.Control...)
		_ = wsmalloc.WriteHeapProfiles(&b, res.HeapProfiles.Experiment...)
	}
	return b.String()
}

// runBench sweeps -j over the same experiment, checks bit-identical
// results against -j 1, and writes the JSON report. Returns false if any
// parallel result diverged from the sequential one.
func runBench(f *wsmalloc.Fleet, control, experiment wsmalloc.Config, opts wsmalloc.ABOptions,
	sweep string, out string, seed uint64) bool {
	var js []int
	for _, tok := range strings.Split(sweep, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "max" {
			js = append(js, runtime.NumCPU())
			continue
		}
		j, err := strconv.Atoi(tok)
		if err != nil || j < 1 {
			fmt.Fprintf(os.Stderr, "bad -bench-sweep entry %q\n", tok)
			os.Exit(2)
		}
		js = append(js, j)
	}
	if len(js) == 0 || js[0] != 1 {
		js = append([]int{1}, js...) // speedups are measured against -j 1
	}
	seen := map[int]bool{}
	uniq := js[:0]
	for _, j := range js {
		if !seen[j] {
			seen[j] = true
			uniq = append(uniq, j)
		}
	}
	js = uniq

	doc := benchDoc{
		Benchmark:         "fleet-ab",
		FleetMachines:     len(f.Machines),
		RunsPerMachine:    2, // paired control + experiment
		VirtualDurationMs: opts.DurationNs / 1_000_000,
		Seed:              seed,
		NumCPU:            runtime.NumCPU(),
	}
	var baseWall float64
	var baseline string
	ok := true
	for _, j := range js {
		opts.Workers = j
		start := time.Now()
		res := f.ABTest(control, experiment, opts)
		wall := time.Since(start)
		fp := fingerprint(res, opts.DurationNs)
		if j == 1 && baseline == "" {
			baseline = fp
			baseWall = wall.Seconds()
		}
		doc.EnrolledMachines = res.Fleet.Machines
		e := benchEntry{
			J:              j,
			WallMs:         float64(wall.Microseconds()) / 1000,
			MachinesPerSec: float64(2*res.Fleet.Machines) / wall.Seconds(),
			SpeedupVsJ1:    baseWall / wall.Seconds(),
			IdenticalToJ1:  fp == baseline,
		}
		if !e.IdenticalToJ1 {
			ok = false
		}
		doc.Sweep = append(doc.Sweep, e)
		fmt.Printf("-j %-3d %8.1f ms  %7.1f machines/s  speedup %.2fx  identical=%v\n",
			e.J, e.WallMs, e.MachinesPerSec, e.SpeedupVsJ1, e.IdenticalToJ1)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	return ok
}

func main() {
	machines := flag.Int("machines", 400, "fleet size")
	feature := flag.String("feature", "all",
		"all (full redesign) or one of: heterogeneous-percpu-cache, nuca-transfer-cache, span-prioritization, lifetime-aware-filler")
	designFlag := flag.String("design", "",
		"experiment-arm design point overriding -feature: \"optimized\" or tier=policy pairs, e.g. percpu=ewma,tc=nuca (control stays baseline)")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	durationMs := flag.Int64("duration-ms", 250, "virtual run length per machine")
	sample := flag.Float64("sample", 0.01, "fraction of machines enrolled (paper: 1%)")
	chaosRate := flag.Float64("chaos-mmap-rate", 0, "injected mmap failure probability per MapHuge (0 disables)")
	chaosBudgetMB := flag.Int64("chaos-budget-mb", 0, "per-machine committed-byte budget in MiB (0 = unlimited)")
	auditEveryMs := flag.Int64("audit-every-ms", 0, "virtual cadence of invariant audits (0 disables)")
	telemetryOn := flag.Bool("telemetry", false, "instrument enrolled runs and aggregate per-arm metrics registries")
	heapprofOn := flag.Bool("heapprof", false, "attach the sampled heap profiler to enrolled runs and aggregate per-arm profiles")
	heapprofInterval := flag.Int64("heapprof-interval", 0, "mean sampled-allocation interval in bytes (0 = default 512 KiB)")
	gwpDir := flag.String("gwp-dir", "", "write both arms into a gwp profile warehouse at this directory (raw-00000000=control, raw-00000001=experiment; needs -heapprof)")
	metricsOut := flag.String("metrics-out", "", "write aggregated telemetry to BASE.prom, BASE.json and BASE.mallocz (implies -telemetry)")
	serveAddr := flag.String("serve", "", "serve /metricsz (and /heapz with -heapprof) on this address after the run (implies -telemetry, blocks)")
	workers := flag.Int("j", 0, "concurrent machine simulations (0 = all cores, 1 = sequential)")
	lifecycleFlags := fleet.BindLifecycleFlags(flag.CommandLine)
	retries := flag.Int("retries", 1, "max attempts per machine run; retries resume from the machine's checkpoint")
	retuneAtMs := flag.Int64("retune-at-ms", 0, "live-swap every experiment-arm machine to -retune-design at this virtual time (0 disables)")
	retuneDesign := flag.String("retune-design", "", "design point the experiment arm retunes to at -retune-at-ms (control arm never retunes)")
	benchSweep := flag.String("bench-sweep", "", "comma-separated -j values to benchmark (e.g. 1,2,4,max); writes JSON and exits")
	benchOut := flag.String("bench-out", "BENCH_fleet.json", "benchmark JSON output path (with -bench-sweep)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	flag.Parse()
	profiling.TuneGC()

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProfiling()

	control := wsmalloc.Baseline()
	spec := *designFlag
	if spec == "" {
		// -feature names one of the paper's four redesigns (the design
		// shorthands other than the two endpoints), or "all" for the full
		// redesign.
		spec = *feature
		if spec == "all" {
			spec = "optimized"
		} else if spec == "baseline" || spec == "optimized" || !wsmalloc.IsDesignShorthand(spec) {
			fmt.Fprintf(os.Stderr, "unknown feature %q\n", *feature)
			os.Exit(2)
		}
	}
	// Both arms carry their full design-point strings into the merged
	// telemetry and heap-profile exports, so profdiff and dashboards can
	// identify an arm without knowing which -feature/-design spawned it.
	experimentDesign, err := wsmalloc.ParseDesignPoint(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-design: %v\n", err)
		os.Exit(2)
	}
	experiment, err := wsmalloc.ConfigForDesign(experimentDesign)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-design: %v\n", err)
		os.Exit(2)
	}
	armDesc := "feature=" + *feature
	if *designFlag != "" {
		armDesc = "design=" + experimentDesign.String()
	}

	f := wsmalloc.NewFleet(*machines, *seed)
	opts := wsmalloc.DefaultABOptions()
	opts.SampleFraction = *sample
	opts.DurationNs = *durationMs * 1_000_000
	opts.Chaos = wsmalloc.FaultPlan{
		Seed:              *seed ^ 0xc4a05c4a,
		MmapFailureRate:   *chaosRate,
		MappedBytesBudget: *chaosBudgetMB << 20,
	}
	opts.AuditEveryNs = *auditEveryMs * 1_000_000
	opts.Workers = *workers
	lc, err := lifecycleFlags.Options(opts.DurationNs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Checkpoint = lc.Checkpoint
	opts.Churn = lc.Churn
	opts.RestartOnOOM = lc.RestartOnOOM
	if *retries > 1 {
		opts.Retry = wsmalloc.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   250 * time.Millisecond,
			MaxDelay:    5 * time.Second,
		}
	}
	opts.ControlDesign = wsmalloc.BaselineDesign().String()
	opts.ExperimentDesign = experimentDesign.String()
	if (*retuneDesign != "") != (*retuneAtMs > 0) {
		fmt.Fprintln(os.Stderr, "-retune-design and -retune-at-ms must be used together")
		os.Exit(2)
	}
	if *retuneDesign != "" {
		rdp, err := wsmalloc.ParseDesignPoint(*retuneDesign)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-retune-design: %v\n", err)
			os.Exit(2)
		}
		opts.RetuneAtNs = *retuneAtMs * 1_000_000
		opts.RetuneDesign = rdp.String()
	}
	if *metricsOut != "" || *serveAddr != "" {
		*telemetryOn = true
	}
	if *telemetryOn {
		// Per-machine trace rings are not aggregated across a fleet, so
		// leave them off and keep only the mergeable registries.
		opts.Telemetry = wsmalloc.TelemetryConfig{Enabled: true}
	}
	if *heapprofOn {
		hcfg := wsmalloc.DefaultHeapProfileConfig()
		hcfg.SampleIntervalBytes = *heapprofInterval
		hcfg.Seed = *seed
		opts.HeapProfile = hcfg
	}
	if *gwpDir != "" && !*heapprofOn {
		fmt.Fprintln(os.Stderr, "-gwp-dir needs -heapprof")
		os.Exit(2)
	}

	if *benchSweep != "" {
		if !runBench(f, control, experiment, opts, *benchSweep, *benchOut, *seed) {
			fmt.Fprintln(os.Stderr, "bench: parallel result diverged from -j 1")
			os.Exit(1)
		}
		return
	}

	fmt.Printf("fleet A/B: %d machines, %s, %.1f%% sampled, %dms virtual each\n",
		*machines, armDesc, *sample*100, *durationMs)
	fmt.Printf("  control    %s\n  experiment %s\n", opts.ControlDesign, opts.ExperimentDesign)
	res, err := f.ABTestErr(control, experiment, opts)
	if err != nil {
		if errors.Is(err, wsmalloc.ErrHalted) {
			// Scheduled kill: every machine checkpointed. Exit code 3 so
			// wrappers can distinguish "resume me" from a real failure.
			fmt.Println(err)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
	var snaps []wsmalloc.TelemetrySnapshot
	if res.Telemetry != nil {
		snaps = res.Telemetry.Snapshots(opts.DurationNs)
		if *metricsOut != "" {
			paths, err := wsmalloc.WriteTelemetryFiles(*metricsOut, snaps, nil, wsmalloc.TraceDump{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "write telemetry: %v\n", err)
				os.Exit(1)
			}
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
		} else {
			fmt.Println()
			if err := wsmalloc.WriteTelemetryMallocz(os.Stdout, snaps...); err != nil {
				fmt.Fprintf(os.Stderr, "mallocz: %v\n", err)
				os.Exit(1)
			}
		}
	}

	// Both arms' merged profiles in one export, control first, so
	// profdiff can split them by label.
	var profiles []wsmalloc.HeapProfile
	if res.HeapProfiles != nil {
		profiles = append(profiles, res.HeapProfiles.Control...)
		profiles = append(profiles, res.HeapProfiles.Experiment...)
		if *metricsOut != "" {
			for _, out := range []struct {
				path  string
				write func(w *os.File) error
			}{
				{*metricsOut + ".heapz", func(w *os.File) error { return wsmalloc.WriteHeapProfiles(w, profiles...) }},
				{*metricsOut + ".heapz.json", func(w *os.File) error { return wsmalloc.WriteHeapProfilesJSON(w, profiles...) }},
			} {
				fl, err := os.Create(out.path)
				if err == nil {
					err = out.write(fl)
					if cerr := fl.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "write %s: %v\n", out.path, err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", out.path)
			}
		} else {
			fmt.Println()
			if err := wsmalloc.WriteHeapProfiles(os.Stdout, profiles...); err != nil {
				fmt.Fprintf(os.Stderr, "heapz: %v\n", err)
				os.Exit(1)
			}
		}
	}

	// One warehouse window per arm: gwpquery then answers CDF, frag and
	// window-vs-window profdiff queries over a standalone fleet run with
	// the same tooling the daemon's continuous collection feeds.
	if *gwpDir != "" && res.HeapProfiles != nil {
		fp := fmt.Sprintf("fleet-ab seed=%#x machines=%d sample=%g duration=%d control=%q experiment=%q",
			*seed, *machines, *sample, opts.DurationNs, opts.ControlDesign, opts.ExperimentDesign)
		wh, err := gwp.Open(*gwpDir, fp, gwp.DefaultRetention(), false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("wrote gwp warehouse %s (raw-00000000=control, raw-00000001=experiment)\n", *gwpDir)
	}

	if *serveAddr != "" {
		serveStart := time.Now()
		ep := wsmalloc.TelemetryEndpoints{
			Snapshots: func() []wsmalloc.TelemetrySnapshot { return snaps },
			// /statusz identifies the finished A/B run this one-shot server
			// is exposing; /healthz reports "ok" for as long as it serves.
			Status: func() any {
				return map[string]any{
					"service":       "fleet-ab",
					"uptime_sec":    time.Since(serveStart).Seconds(),
					"arm":           armDesc,
					"machines":      *machines,
					"sample":        *sample,
					"seed":          *seed,
					"duration_ms":   *durationMs,
					"arms":          len(snaps),
					"heap_profiles": len(profiles),
				}
			},
			Health: func() error { return nil },
		}
		if len(profiles) > 0 {
			ep.Heapz = func(w io.Writer, format string) error {
				if format == "json" {
					return wsmalloc.WriteHeapProfilesJSON(w, profiles...)
				}
				return wsmalloc.WriteHeapProfiles(w, profiles...)
			}
		}
		fmt.Printf("serving /metricsz, /heapz, /statusz and /healthz on %s\n", *serveAddr)
		if err := wsmalloc.ServeTelemetry(*serveAddr, ep); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	}
}
