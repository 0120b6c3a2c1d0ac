// Command wsmalloc-sim runs one workload profile against the allocator
// and dumps the full telemetry: per-tier cycle breakdown, fragmentation
// breakdown, hugepage coverage, cache statistics.
//
// Usage:
//
//	wsmalloc-sim [-profile fleet] [-config baseline|optimized|<feature>]
//	             [-design tier=policy,...] [-duration-ms 200] [-seed 1]
//	             [-telemetry] [-metrics-out BASE] [-sample-every-ms 10]
//	             [-heapprof] [-pageheapz] [-serve :8080]
//	             [-retune-at-ms N -retune-design D]
//	             [-checkpoint-dir DIR] [-checkpoint-every-ms N] [-resume]
//	             [-kill-frac 0.5] [-churn 1] [-restart-on-oom]
//
// The run is a fleet of one: the profile runs as one machine on the
// machine runtime, and a run without lifecycle flags is the plain case.
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
//
// The lifecycle flags checkpoint, kill (-kill-frac exits 3; -resume
// finishes byte-identically), churn or OOM-restart the machine. Every
// output works with them: the registry carries every dead process's
// counters and histograms, while its gauges, the BASE.json series and
// trace ring, and the hugepage maps describe the live (last) process.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"wsmalloc/internal/fleet"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/profiling"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

func main() {
	profileName := flag.String("profile", "fleet", "workload profile (see -list)")
	configName := flag.String("config", "baseline",
		"baseline, optimized, or one redesign: heterogeneous-percpu-cache, nuca-transfer-cache, span-prioritization, lifetime-aware-filler")
	listPolicies := flag.Bool("list-policies", false, "list registered per-tier policies and exit")
	list := flag.Bool("list", false, "list profiles and exit")
	sampleEveryMs := flag.Int64("sample-every-ms", 10, "virtual cadence of the telemetry time-series sampler (0 disables)")
	pageheapzOn := flag.Bool("pageheapz", false, "dump hugepage occupancy maps and the fragmentation decomposition")
	runFlags := fleet.BindRunFlags(flag.CommandLine, 200)
	flag.Parse()
	profiling.TuneGC()

	if *list {
		for _, p := range workload.AllProfiles() {
			fmt.Printf("  %-18s malloc %4.1f%%  threads ~%d  cpus %d\n",
				p.Name, p.MallocFraction*100, p.Threads.Base, p.CPUSet)
		}
		return
	}
	if *listPolicies {
		for _, tier := range policy.Tiers() {
			fmt.Printf("%s:\n", tier)
			for _, name := range policy.Names(tier) {
				p, _ := policy.Lookup(tier, name)
				fmt.Printf("  %-10s %s\n", name, p.Desc)
			}
		}
		return
	}

	rs, err := runFlags.Spec()
	if err != nil {
		exit(2, err)
	}
	stopProfiling, err := profiling.Start(rs.CPUProfile, rs.MemProfile)
	if err != nil {
		exit(2, err)
	}
	defer stopProfiling()

	profile, ok := workload.ByName(*profileName)
	if !ok {
		exit(2, fmt.Errorf("unknown profile %q (try -list)", *profileName))
	}
	// -design identifies the run by its full design string and stamps it
	// onto every export; otherwise the run keeps its -config label.
	runLabel, label, design := *configName, *configName, ""
	if rs.DesignSet {
		runLabel, label, design = rs.Design.String(), "", rs.Design.String()
	} else if !policy.IsShorthand(*configName) {
		// -config takes only the named shorthands; tier=policy pairs go
		// through -design.
		exit(2, fmt.Errorf("unknown config %q", *configName))
	} else if rs.Design, rs.Config, err = fleet.ResolveDesign(*configName); err != nil {
		exit(2, err)
	}

	cfg := rs.Config
	if rs.Telemetry {
		cfg.Telemetry = telemetry.DefaultConfig()
		cfg.Telemetry.SampleEveryNs = *sampleEveryMs * 1_000_000
	}
	cfg.HeapProfile = rs.HeapProfile
	opts := workload.DefaultOptions(rs.Seed)
	opts.Duration = rs.DurationNs()
	opts.RetuneAtNs, opts.RetuneDesign = rs.RetuneAtNs, rs.RetuneDesign
	lc := rs.Lifecycle
	lc.Arm, lc.Design, lc.ChurnSeed = "sim", runLabel, rs.Seed^0xc0ffee

	m := fleet.Machine{Platform: topology.Default(), App: profile, Seed: rs.Seed}
	rm, rt, halted, err := fleet.RunMachineLifecycle(m, cfg, opts, lc)
	if err != nil {
		exit(1, err)
	}
	if halted {
		fmt.Printf("run killed at %.0f%% virtual time; checkpointed to %s — re-run with -resume to finish\n",
			lc.Checkpoint.KillAtFrac*100, lc.Checkpoint.Dir)
		os.Exit(3)
	}
	if c := rt.Counters(); c.ChurnKills+c.OOMKills+c.Restarts > 0 {
		fmt.Printf("lifecycle: %d churn kills, %d OOM kills, %d restarts\n",
			c.ChurnKills, c.OOMKills, c.Restarts)
	}
	res := rm.Result
	st := res.Stats

	fmt.Printf("profile %s under %s for %dms virtual (seed %d)\n",
		profile.Name, runLabel, rs.DurationMs, rs.Seed)
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

	x := fleet.RunExport{Profiles: rm.HeapProfiles, Process: rt.Alloc(), WritePageHeapZ: *pageheapzOn}
	if rm.Telemetry != nil {
		snap := rm.Telemetry.Snapshot(label, x.Process.Now())
		snap.Design = design
		x.Snapshots = []telemetry.Snapshot{snap}
	}
	for i := range x.Profiles {
		x.Profiles[i].Label, x.Profiles[i].Design = label, design
	}
	if err := rs.Export(os.Stdout, x); err != nil {
		exit(1, err)
	}
	if rs.ServeAddr != "" {
		err := rs.Serve(os.Stdout, "wsmalloc-sim", x, map[string]any{
			"profile": profile.Name,
			"config":  runLabel,
			"ops":     res.Ops,
			"frees":   res.Frees,
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

func f(b int64) float64 { return float64(b) / (1 << 20) }

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}
