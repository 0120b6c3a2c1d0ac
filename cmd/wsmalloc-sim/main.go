// Command wsmalloc-sim runs one workload profile against the allocator
// and dumps the full telemetry: per-tier cycle breakdown, fragmentation
// breakdown, hugepage coverage, cache statistics.
//
// Usage:
//
//	wsmalloc-sim [-profile fleet] [-config baseline|optimized|<feature>]
//	             [-duration-ms 200] [-seed 1]
//	             [-telemetry] [-metrics-out BASE] [-sample-every-ms 10]
//	             [-serve :8080]
//
// -telemetry instruments every allocator tier with the metrics registry
// and event tracer and appends a mallocz-style dump to the report.
// -metrics-out writes BASE.prom (Prometheus text), BASE.json (snapshot +
// time series + trace) and BASE.mallocz instead; -sample-every-ms sets
// the virtual-time cadence of the time-series sampler. -heapprof
// attaches the Poisson-sampled heap profiler and dumps the heapz /
// allocz / peakheapz views (plus BASE.heapz and BASE.heapz.json next to
// -metrics-out). -pageheapz dumps the hugepage occupancy maps and the
// fragmentation decomposition. -serve keeps the process alive serving
// /metricsz, /tracez, /heapz and /pageheapz over HTTP.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"wsmalloc"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/profiling"
)

func main() {
	profileName := flag.String("profile", "fleet", "workload profile (see -list)")
	configName := flag.String("config", "baseline",
		"baseline, optimized, or one redesign: heterogeneous-percpu-cache, nuca-transfer-cache, span-prioritization, lifetime-aware-filler")
	designFlag := flag.String("design", "",
		"design point overriding -config: \"baseline\", \"optimized\", or tier=policy pairs, e.g. percpu=hetero,tc=nuca,cfl=prio8,filler=capacity (see -list-policies)")
	listPolicies := flag.Bool("list-policies", false, "list registered per-tier policies and exit")
	durationMs := flag.Int64("duration-ms", 200, "virtual run length in milliseconds")
	seed := flag.Uint64("seed", 1, "deterministic simulation seed")
	list := flag.Bool("list", false, "list profiles and exit")
	telemetryOn := flag.Bool("telemetry", false, "instrument the allocator and dump a mallocz-style report")
	metricsOut := flag.String("metrics-out", "", "write telemetry to BASE.prom, BASE.json and BASE.mallocz (implies -telemetry)")
	sampleEveryMs := flag.Int64("sample-every-ms", 10, "virtual cadence of the telemetry time-series sampler (0 disables)")
	serveAddr := flag.String("serve", "", "serve /metricsz, /tracez, /heapz and /pageheapz on this address after the run (implies -telemetry, blocks)")
	heapprofOn := flag.Bool("heapprof", false, "attach the sampled heap profiler and dump heapz/allocz/peakheapz")
	heapprofInterval := flag.Int64("heapprof-interval", 0, "mean sampled-allocation interval in bytes (0 = default 512 KiB)")
	pageheapzOn := flag.Bool("pageheapz", false, "dump hugepage occupancy maps and the fragmentation decomposition")
	lifecycleFlags := fleet.BindLifecycleFlags(flag.CommandLine)
	retuneAtMs := flag.Int64("retune-at-ms", 0, "live-swap the allocator to -retune-design at this virtual time (0 disables)")
	retuneDesign := flag.String("retune-design", "", "design point applied live at -retune-at-ms (e.g. \"optimized\" or \"percpu=hetero,tc=nuca,cfl=prio8,filler=capacity\")")
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

	if *list {
		for _, p := range wsmalloc.AllProfiles() {
			fmt.Printf("  %-18s malloc %4.1f%%  threads ~%d  cpus %d\n",
				p.Name, p.MallocFraction*100, p.Threads.Base, p.CPUSet)
		}
		return
	}
	if *listPolicies {
		for _, tier := range wsmalloc.PolicyTiers() {
			fmt.Printf("%s:\n", tier)
			for _, name := range wsmalloc.PolicyNames(tier) {
				p, _ := wsmalloc.LookupPolicy(tier, name)
				fmt.Printf("  %-10s %s\n", name, p.Desc)
			}
		}
		return
	}

	profile, ok := wsmalloc.ProfileByName(*profileName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q (try -list)\n", *profileName)
		os.Exit(2)
	}

	spec := *designFlag
	if spec == "" {
		// -config takes only the named shorthands; tier=policy pairs go
		// through -design.
		if !wsmalloc.IsDesignShorthand(*configName) {
			fmt.Fprintf(os.Stderr, "unknown config %q\n", *configName)
			os.Exit(2)
		}
		spec = *configName
	}
	dp, err := wsmalloc.ParseDesignPoint(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-design: %v\n", err)
		os.Exit(2)
	}
	cfg, err := wsmalloc.ConfigForDesign(dp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-design: %v\n", err)
		os.Exit(2)
	}
	// design is the canonical design-point string stamped onto every
	// export when -design is used; "" keeps the legacy -config labeling.
	design, runLabel := "", *configName
	if *designFlag != "" {
		design = dp.String()
		runLabel = design
	}

	if *metricsOut != "" || *serveAddr != "" {
		*telemetryOn = true
	}
	if *telemetryOn {
		tcfg := wsmalloc.DefaultTelemetryConfig()
		tcfg.SampleEveryNs = *sampleEveryMs * 1_000_000
		cfg.Telemetry = tcfg
	}
	if *heapprofOn {
		hcfg := wsmalloc.DefaultHeapProfileConfig()
		hcfg.SampleIntervalBytes = *heapprofInterval
		hcfg.Seed = *seed
		cfg.HeapProfile = hcfg
	}

	opts := wsmalloc.DefaultRunOptions(*seed)
	opts.Duration = *durationMs * 1_000_000
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

	// Lifecycle mode runs the profile as a fleet of one on the machine
	// runtime: periodic checkpoints, scheduled/churn kills, OOM restarts.
	// A restarted run loses its heap and caches but keeps its workload
	// position. The allocator lives inside the runner, so the live
	// /pageheapz, /tracez and -serve views are unavailable in this mode.
	lc, err := lifecycleFlags.Options(opts.Duration)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if lc.Enabled() && (*pageheapzOn || *serveAddr != "") {
		fmt.Fprintln(os.Stderr, "-pageheapz and -serve are not available with lifecycle flags")
		os.Exit(2)
	}

	var res wsmalloc.RunResult
	var alloc *wsmalloc.Allocator
	var rm wsmalloc.MachineRunMetrics
	if lc.Enabled() {
		m := wsmalloc.Machine{ID: 0, Platform: wsmalloc.DefaultPlatform(), App: profile, Seed: *seed}
		lc.Arm, lc.Design, lc.ChurnSeed = "sim", runLabel, *seed^0xc0ffee
		r, lcStats, halted, err := wsmalloc.RunMachineLifecycle(m, cfg, opts, lc)
		rm = r
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if halted {
			fmt.Printf("run killed at %.0f%% virtual time; checkpointed to %s — re-run with -resume to finish\n",
				lc.Checkpoint.KillAtFrac*100, lc.Checkpoint.Dir)
			os.Exit(3)
		}
		if lcStats.ChurnKills+lcStats.OOMKills+lcStats.Restarts > 0 {
			fmt.Printf("lifecycle: %d churn kills, %d OOM kills, %d restarts\n",
				lcStats.ChurnKills, lcStats.OOMKills, lcStats.Restarts)
		}
		res = rm.Result
	} else {
		alloc = wsmalloc.NewAllocator(cfg, wsmalloc.DefaultPlatform())
		res = wsmalloc.RunWorkloadOn(profile, alloc, opts)
	}
	st := res.Stats

	fmt.Printf("profile %s under %s for %dms virtual (seed %d)\n",
		profile.Name, runLabel, *durationMs, *seed)
	fmt.Printf("  ops            %d allocs, %d frees (%.1fM ops/s virtual)\n",
		res.Ops, res.Frees, res.OpsPerSecond()/1e6)
	fmt.Printf("  malloc time    %.2f ms modeled (%.2f%% of app CPU)\n",
		res.MallocNs/1e6, res.MallocNs/res.TotalCPUNs*100)
	fmt.Printf("  live heap      %.1f MiB requested, %.1f MiB rounded, %.1f MiB mapped\n",
		f(st.LiveRequestedBytes), f(st.LiveRoundedBytes), f(st.HeapBytes))
	fmt.Printf("  fragmentation  %.1f%% of live (ext %.1f MiB + int %.1f MiB)\n",
		st.FragmentationRatio()*100, f(st.ExternalFragBytes()), f(st.InternalFragBytes()))
	fmt.Printf("  hugepages      coverage %.2f%%\n", st.HugepageCoverage*100)
	fmt.Printf("  front-end      %d vCPU caches, %.1f MiB cached, hit rate %.3f%%\n",
		st.FrontEnd.PopulatedCaches, f(st.FrontEnd.CachedBytes),
		pct(st.FrontEnd.AllocHits, st.FrontEnd.AllocHits+st.FrontEnd.AllocMisses))
	fmt.Printf("  transfer       %.1f MiB cached; reuse intra %d / inter %d / cold %d\n",
		f(st.Transfer.CachedBytes), st.Transfer.IntraDomain, st.Transfer.InterDomain, st.Transfer.Cold)
	fmt.Printf("  central lists  %d spans (%d created, %d released)\n",
		st.CFLSpans, st.CFLSpansCreated, st.CFLSpansReleased)
	fmt.Printf("  pageheap       filler %.1f/%.1f MiB used/free, region %.1f/%.1f, cache %.1f free\n",
		f(st.Heap.FillerUsed), f(st.Heap.FillerFree), f(st.Heap.RegionUsed),
		f(st.Heap.RegionFree), f(st.Heap.CacheFree))

	fmt.Println("  cycle breakdown:")
	shares := st.Time.Shares()
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	for _, k := range keys {
		fmt.Printf("    %-16s %6.2f%%\n", k, shares[k]*100)
	}

	// -design identifies the run by its full design string rather than by
	// the -config name it overrode.
	label := *configName
	if design != "" {
		label = ""
	}
	var snaps []wsmalloc.TelemetrySnapshot
	var series []wsmalloc.TelemetrySnapshot
	var trace wsmalloc.TraceDump
	var profiles []wsmalloc.HeapProfile
	if alloc != nil {
		if tel := alloc.Telemetry(); tel != nil {
			snap := tel.Snapshot(label, alloc.Now())
			snap.Design = design
			snaps = []wsmalloc.TelemetrySnapshot{snap}
			trace = tel.Tracer().Dump()
			series = tel.Samples()
		}
		profiles = alloc.HeapProfiles(label)
	} else {
		if rm.Telemetry != nil {
			// Lifecycle mode: the registry survives resume and carries every
			// dead process's counters and histograms (gauges describe the
			// live process); the trace ring and series stay in the runner.
			snap := rm.Telemetry.Snapshot(label, opts.Duration)
			snap.Design = design
			snaps = []wsmalloc.TelemetrySnapshot{snap}
		}
		profiles = rm.HeapProfiles
		for i := range profiles {
			profiles[i].Label = label
		}
	}
	for i := range profiles {
		profiles[i].Design = design
	}
	if len(snaps) > 0 {
		if *metricsOut != "" {
			paths, err := wsmalloc.WriteTelemetryFiles(*metricsOut, snaps, series, trace)
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

	if len(profiles) > 0 {
		if *metricsOut != "" {
			writeFile(*metricsOut+".heapz", func(w io.Writer) error {
				return wsmalloc.WriteHeapProfiles(w, profiles...)
			})
			writeFile(*metricsOut+".heapz.json", func(w io.Writer) error {
				return wsmalloc.WriteHeapProfilesJSON(w, profiles...)
			})
		} else {
			fmt.Println()
			if err := wsmalloc.WriteHeapProfiles(os.Stdout, profiles...); err != nil {
				fmt.Fprintf(os.Stderr, "heapz: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *pageheapzOn {
		z := alloc.PageHeapZ()
		if *metricsOut != "" {
			writeFile(*metricsOut+".pageheapz", func(w io.Writer) error {
				return wsmalloc.WritePageHeapZ(w, z)
			})
		} else {
			fmt.Println()
			if err := wsmalloc.WritePageHeapZ(os.Stdout, z); err != nil {
				fmt.Fprintf(os.Stderr, "pageheapz: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *serveAddr != "" {
		serveStart := time.Now()
		ep := wsmalloc.TelemetryEndpoints{
			Snapshots: func() []wsmalloc.TelemetrySnapshot { return snaps },
			Trace:     func() wsmalloc.TraceDump { return trace },
			PageHeapz: func(w io.Writer, format string) error {
				z := alloc.PageHeapZ()
				if format == "json" {
					return wsmalloc.WritePageHeapZJSON(w, z)
				}
				return wsmalloc.WritePageHeapZ(w, z)
			},
			// /statusz identifies the finished run this one-shot server is
			// exposing; /healthz reports "ok" for as long as it serves.
			Status: func() any {
				return map[string]any{
					"service":       "wsmalloc-sim",
					"uptime_sec":    time.Since(serveStart).Seconds(),
					"profile":       profile.Name,
					"config":        runLabel,
					"seed":          *seed,
					"duration_ms":   *durationMs,
					"ops":           res.Ops,
					"frees":         res.Frees,
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
		fmt.Printf("serving /metricsz, /tracez, /heapz, /pageheapz, /statusz and /healthz on %s\n", *serveAddr)
		if err := wsmalloc.ServeTelemetry(*serveAddr, ep); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeFile writes one render to path, reporting and exiting on failure.
func writeFile(path string, render func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = render(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func f(b int64) float64 { return float64(b) / (1 << 20) }

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
