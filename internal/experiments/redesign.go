package experiments

import (
	"fmt"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/sizeclass"
	"wsmalloc/internal/span"
	"wsmalloc/internal/stats"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/transfercache"
	"wsmalloc/internal/workload"
)

// abOptions builds the fleet A/B options for a scale.
func abOptions(scale Scale) fleet.ABOptions {
	opts := fleet.DefaultABOptions()
	// A/B effects need in-run decline phases (whole-hugepage drains,
	// cache parking), so the base duration is long and quick scale still
	// covers several diurnal periods.
	opts.DurationNs = scale.duration(4 * opts.DurationNs)
	if scale < ScaleFull {
		opts.MinMachines = 6
	}
	// Fan enrolled machines out over the experiment worker pool; the
	// deterministic reducer keeps results identical to -j 1.
	opts.Workers = Workers()
	return opts
}

const fleetSize = 400

// Fig10 evaluates the heterogeneous per-CPU cache (§4.1): dynamic sizing
// plus a halved default capacity should reduce memory fleet-wide without
// hurting throughput.
func Fig10(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig10",
		Title:      "memory reduction from heterogeneous per-CPU caches",
		PaperClaim: "fleet -1.94%; top apps -0.58..-2.45%; benchmarks -2.08..-2.66%; redis excluded (single-threaded)",
	}
	f := fleet.New(fleetSize, seed)
	base := core.BaselineConfig()
	res := f.ABTest(base, designConfig(policy.DesignPoint{PerCPU: percpu.Hetero}), abOptions(scale))
	r.addf("%-18s memory %+6.2f%%  throughput %+6.2f%%  (n=%d)",
		"fleet", res.Fleet.MemoryPct, res.Fleet.ThroughputPct, res.Fleet.Machines)
	sortRows(res.PerApp)
	for _, row := range res.PerApp {
		r.addf("%-18s memory %+6.2f%%  throughput %+6.2f%%  (n=%d)",
			row.App, row.MemoryPct, row.ThroughputPct, row.Machines)
	}
	dur := scale.duration(250 * workload.Millisecond)
	profs := workload.BenchmarkProfiles()
	lines := make([]string, len(profs))
	fanOut(len(profs), func(i int) error {
		p := profs[i]
		if p.Name == "redis" {
			lines[i] = fmt.Sprintf("%-18s skipped: single-threaded, uses one per-CPU cache (§4.1)", p.Name)
			return nil
		}
		d := benchMemoryDelta(p, base, designConfig(policy.DesignPoint{PerCPU: percpu.Hetero}), seed+7, dur)
		lines[i] = fmt.Sprintf("%-18s memory %+6.2f%%", p.Name, d)
		return nil
	})
	r.Lines = append(r.Lines, lines...)
	return r
}

// Fig11 measures the core-to-core transfer latency disparity on a chiplet
// platform (the paper's Intel MLC measurement).
func Fig11(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig11",
		Title:      "cache-to-cache transfer latency, intra vs inter LLC domain",
		PaperClaim: "inter-domain latency is 2.07x intra-domain",
	}
	topo := topology.New(topology.Default())
	// Probe two cores in the same domain and two across domains.
	sameA, sameB := 0, 2 // distinct cores, domain 0
	crossA := 0
	crossB := topo.Platform().CoresPerDomain * topo.Platform().ThreadsPerCore // first CPU of domain 1
	intra := topo.TransferLatencyNs(sameA, sameB)
	inter := topo.TransferLatencyNs(crossA, crossB)
	r.addf("intra-cache-domain %6.1f ns", intra)
	r.addf("inter-cache-domain %6.1f ns", inter)
	r.addf("ratio              %6.2fx", inter/intra)
	for _, p := range topology.Catalog {
		t := topology.New(p)
		r.addf("platform %-18s domains=%2d cpus=%3d inter/intra=%.2fx",
			p.Name, t.NumDomains(), t.NumCPUs(), t.InterIntraRatio())
	}
	return r
}

// Fig12 reports the NUCA-aware transfer cache structure that gets
// instantiated on the default platform.
func Fig12(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig12",
		Title:      "NUCA-aware transfer cache structure",
		PaperClaim: "one transfer cache per LLC domain, backed by a centralized legacy transfer cache",
	}
	topo := topology.New(topology.Default())
	cfg := designConfig(policy.DesignPoint{TC: transfercache.NUCA})
	a := core.New(cfg, topo)
	// Bulk-churn one CPU per domain so every domain cache serves traffic.
	for d := 0; d < topo.NumDomains(); d++ {
		cpu := topo.CPUsInDomain(d)[0]
		var addrs []uint64
		for i := 0; i < 4000; i++ {
			addr, _ := a.Malloc(64, cpu)
			addrs = append(addrs, addr)
		}
		for _, addr := range addrs {
			a.Free(addr, 64, cpu)
		}
		for i := 0; i < 4000; i++ {
			addr, _ := a.Malloc(64, cpu)
			a.Free(addr, 64, cpu)
		}
	}
	st := a.Stats()
	r.addf("platform %s: %d LLC domains, %d CPUs", topo.Platform().Name, topo.NumDomains(), topo.NumCPUs())
	r.addf("NUCA transfer caches: %d (one per domain), backed by 1 legacy cache", topo.NumDomains())
	r.addf("domain-cache hits so far: %d; legacy hits: %d", st.Transfer.DomainHits, st.Transfer.LegacyHits)
	return r
}

// Table1 runs the NUCA-aware transfer cache fleet A/B (§4.2).
func Table1(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "table1",
		Title:      "NUCA-aware transfer caches: fleet A/B and benchmarks",
		PaperClaim: "fleet +0.32% thr, +0.10% mem, -0.57% CPI, LLC 2.52->2.41; apps +0.28..1.72% thr; benches +1.37..3.80% thr",
	}
	f := fleet.New(fleetSize, seed)
	base := core.BaselineConfig()
	nuca := designConfig(policy.DesignPoint{TC: transfercache.NUCA})
	res := f.ABTest(base, nuca, abOptions(scale))
	r.addf("%s", res.Fleet.String())
	sortRows(res.PerApp)
	for _, row := range res.PerApp {
		r.addf("%s", row.String())
	}
	dur := scale.duration(250 * workload.Millisecond)
	profs := workload.BenchmarkProfiles()
	lines := make([]string, len(profs))
	fanOut(len(profs), func(i int) error {
		p := profs[i]
		if p.Name == "redis" {
			lines[i] = fmt.Sprintf("%-18s skipped: single-threaded (§4.2)", p.Name)
			return nil
		}
		mini := fleet.Fleet{Machines: []fleet.Machine{{ID: 0, Platform: topology.Default(), App: p, Seed: seed + 13}}}
		opts := abOptions(scale)
		opts.MinMachines = 1
		opts.DurationNs = dur
		row := mini.ABTest(base, nuca, opts).Fleet
		row.App = p.Name
		lines[i] = row.String()
		return nil
	})
	r.Lines = append(r.Lines, lines...)
	return r
}

// Fig13 measures span return rate as a function of live allocations for
// the 16-byte size class.
func Fig13(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig13",
		Title:      "span return rate vs live allocations (16B class, 512-object spans)",
		PaperClaim: "release probability falls steeply as live allocations grow",
	}
	topo := topology.New(topology.Default())
	alloc := core.New(telemetryConfig(), topo)
	table := sizeclass.NewTable()
	class16, _ := table.ClassFor(16)
	study := cflStudyProfile()

	type snapshot struct {
		live map[int64]int // span Seq -> live allocations
	}
	// Track (live-allocation bucket) -> (observed, released within the
	// observation window). The paper's telemetry measures release
	// probability over an epoch, not instantaneously; the window here is
	// several snapshots long.
	const buckets = 10
	const windowSnaps = 20
	observed := make([]float64, buckets)
	released := make([]float64, buckets)
	bucketOf := func(live int) int {
		b := live * buckets / (class16.ObjectsPerSpan + 1)
		if b >= buckets {
			b = buckets - 1
		}
		return b
	}
	var history []*snapshot
	snap := func(now int64) {
		cur := &snapshot{live: map[int64]int{}}
		alloc.CentralFreeList(class16.Index).EachSpan(func(s *span.Span) {
			cur.live[s.Seq] = s.Live()
		})
		history = append(history, cur)
		if len(history) > windowSnaps {
			old := history[0]
			history = history[1:]
			for s, live := range old.live {
				b := bucketOf(live)
				observed[b]++
				if _, still := cur.live[s]; !still {
					released[b]++
				}
			}
		}
	}
	opts := workload.DefaultOptions(seed)
	opts.Duration = scale.duration(800 * workload.Millisecond)
	opts.Snapshot = snap
	opts.SnapshotEveryNs = 2 * workload.Millisecond
	workload.Run(study, alloc, opts)

	for b := 0; b < buckets; b++ {
		if observed[b] == 0 {
			continue
		}
		lo := b * (class16.ObjectsPerSpan + 1) / buckets
		hi := (b+1)*(class16.ObjectsPerSpan+1)/buckets - 1
		r.addf("live %3d-%3d: return rate %6.2f%%  (spans observed %6.0f)",
			lo, hi, released[b]/observed[b]*100, observed[b])
	}
	// Monotonicity summary: compare the lowest and highest populated
	// buckets.
	loRate, hiRate := -1.0, -1.0
	for b := 0; b < buckets; b++ {
		if observed[b] > 20 {
			rate := released[b] / observed[b]
			if loRate < 0 {
				loRate = rate
			}
			hiRate = rate
		}
	}
	if loRate >= 0 && hiRate >= 0 {
		r.addf("sparse spans release %.1fx more often than dense spans", safeDiv(loRate, hiRate))
	}
	return r
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig14 evaluates span prioritization (§4.3) via fleet A/B.
func Fig14(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig14",
		Title:      "memory reduction from span prioritization",
		PaperClaim: "fleet -1.41%; monarch -2.76%; other apps -0.34..-2.54%; benches -0.61..-1.36%",
	}
	f := fleet.New(fleetSize, seed)
	base := core.BaselineConfig()
	prio := designConfig(policy.DesignPoint{CFL: centralfreelist.FullestFirst})
	res := f.ABTest(base, prio, abOptions(scale))
	r.addf("%-18s memory %+6.3f%%  (n=%d)", "fleet", res.Fleet.MemoryPct, res.Fleet.Machines)
	sortRows(res.PerApp)
	for _, row := range res.PerApp {
		r.addf("%-18s memory %+6.3f%%  (n=%d)", row.App, row.MemoryPct, row.Machines)
	}
	dur := scale.duration(250 * workload.Millisecond)
	profs := workload.BenchmarkProfiles()
	lines := make([]string, len(profs))
	fanOut(len(profs), func(i int) error {
		d := benchMemoryDelta(profs[i], base, prio, seed+3, dur)
		lines[i] = fmt.Sprintf("%-18s memory %+6.3f%%", profs[i].Name, d)
		return nil
	})
	r.Lines = append(r.Lines, lines...)
	return r
}

// Fig15 decomposes pageheap in-use memory and fragmentation by component.
func Fig15(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig15",
		Title:      "pageheap in-use memory and fragmentation by component",
		PaperClaim: "HugeFiller holds 83.6% of in-use memory and 94.4% of pageheap fragmentation",
	}
	dur := scale.duration(200 * workload.Millisecond)
	res, _ := runProfile(&r, workload.Fleet(), core.BaselineConfig(), seed, dur)
	h := res.Stats.Heap
	used := float64(max64(h.UsedBytes, 1))
	frag := float64(max64(h.FreeBytes, 1))
	r.addf("in-use:        HugeFiller %5.1f%%  HugeRegion %5.1f%%  HugeCache(large) %5.1f%%",
		float64(h.FillerUsed)/used*100, float64(h.RegionUsed)/used*100, float64(h.LargeUsed)/used*100)
	r.addf("fragmentation: HugeFiller %5.1f%%  HugeRegion %5.1f%%  HugeCache %5.1f%%",
		float64(h.FillerFree)/frag*100, float64(h.RegionFree)/frag*100, float64(h.CacheFree)/frag*100)
	return r
}

// Fig16 correlates span capacity with span return rate across all size
// classes.
func Fig16(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig16",
		Title:      "span capacity vs span return rate across size classes",
		PaperClaim: "strong negative correlation (Spearman rho = -0.75)",
	}
	dur := scale.duration(800 * workload.Millisecond)
	topo16 := topology.New(topology.Default())
	alloc := core.New(telemetryConfig(), topo16)
	opts16 := workload.DefaultOptions(seed)
	opts16.Duration = dur
	workload.Run(cflStudyProfile(), alloc, opts16)
	table := alloc.Table()
	var caps, rates []float64
	for i := 0; i < table.NumClasses(); i++ {
		st := alloc.CentralFreeList(i).Stats()
		if st.SpansCreated < 5 {
			continue
		}
		caps = append(caps, float64(table.Class(i).ObjectsPerSpan))
		rates = append(rates, float64(st.SpansReleased)/float64(st.SpansCreated))
	}
	rho := stats.Spearman(caps, rates)
	r.addf("size classes with >=5 spans: %d", len(caps))
	for i := 0; i < len(caps); i += maxInt(1, len(caps)/12) {
		r.addf("capacity %6.0f objects/span: return rate %6.2f%%", caps[i], rates[i]*100)
	}
	r.addf("Spearman correlation (capacity vs return rate): %.2f (paper: -0.75)", rho)
	return r
}

// Table2 runs the lifetime-aware hugepage filler fleet A/B (§4.4).
func Table2(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "table2",
		Title:      "lifetime-aware hugepage filler: fleet A/B and benchmarks",
		PaperClaim: "fleet +1.02% thr, -0.82% mem, -6.75% CPI, dTLB walk 9.16%->6.22%; apps +0.38..6.29% thr",
	}
	f := fleet.New(fleetSize, seed)
	base := core.BaselineConfig()
	lt := designConfig(policy.DesignPoint{Filler: pageheap.FillerCapacity})
	res := f.ABTest(base, lt, abOptions(scale))
	r.addf("%s", res.Fleet.String())
	sortRows(res.PerApp)
	for _, row := range res.PerApp {
		r.addf("%s", row.String())
	}
	dur := scale.duration(250 * workload.Millisecond)
	profs := workload.BenchmarkProfiles()
	lines := make([]string, len(profs))
	fanOut(len(profs), func(i int) error {
		mini := fleet.Fleet{Machines: []fleet.Machine{{ID: 0, Platform: topology.Default(), App: profs[i], Seed: seed + 17}}}
		opts := abOptions(scale)
		opts.MinMachines = 1
		opts.DurationNs = dur
		row := mini.ABTest(base, lt, opts).Fleet
		row.App = profs[i].Name
		lines[i] = row.String()
		return nil
	})
	r.Lines = append(r.Lines, lines...)
	return r
}

// Fig17 reports hugepage coverage and the dTLB miss improvement from the
// lifetime-aware filler.
func Fig17(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig17",
		Title:      "hugepage coverage and dTLB improvement, baseline vs lifetime-aware",
		PaperClaim: "coverage 54.4% -> 56.2%; dTLB misses -8.1% (relative)",
	}
	f := fleet.New(fleetSize, seed)
	lt := designConfig(policy.DesignPoint{Filler: pageheap.FillerCapacity})
	res := f.ABTest(core.BaselineConfig(), lt, abOptions(scale))
	covB, covA := res.CoverageControl, res.CoverageExperiment
	r.addf("hugepage coverage: baseline %5.2f%%  lifetime-aware %5.2f%%  (delta %+.2f pp)",
		covB*100, covA*100, (covA-covB)*100)
	rel := 0.0
	if res.Fleet.WalkBeforePct > 0 {
		rel = (res.Fleet.WalkBeforePct - res.Fleet.WalkAfterPct) / res.Fleet.WalkBeforePct * 100
	}
	r.addf("dTLB walk cycles: %5.2f%% -> %5.2f%%  (relative reduction %.1f%%)",
		res.Fleet.WalkBeforePct, res.Fleet.WalkAfterPct, rel)
	return r
}

// Combined estimates the aggregate rollout of all four redesigns (§4.5).
func Combined(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "combined",
		Title:      "combined rollout: all four redesigns vs legacy baseline",
		PaperClaim: "fleet +1.4% throughput, -3.4% RAM; top apps 0.7-8.1% thr / 1.0-6.3% mem",
	}
	f := fleet.New(fleetSize, seed)
	res := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), abOptions(scale))
	r.addf("%s", res.Fleet.String())
	sortRows(res.PerApp)
	for _, row := range res.PerApp {
		r.addf("%s", row.String())
	}
	return r
}

// telemetryConfig shrinks the front-end and transfer caches so span
// occupancy tracks application liveness within the short virtual window.
// Production telemetry integrates over two weeks, in which cached LIFO
// stack bottoms cycle naturally; a sub-second run must shrink the caches
// (the transfer cache to pass-through) to observe the same span dynamics.
func telemetryConfig() core.Config {
	cfg := core.BaselineConfig()
	cfg.PerCPU.CapacityBytes = 16 << 10
	cfg.PerCPU.InitialCapacityBytes = 8 << 10
	cfg.PerCPU.PerClassBytesCap = 128
	cfg.PerCPU.DecayIntervalNs = 5e6
	cfg.Transfer.LegacyBytesPerClass = 1
	cfg.Transfer.LegacyObjectsPerClass = 1
	return cfg
}

// cflStudyProfile is the workload behind the span telemetry studies
// (Figs. 13 and 16): traffic spread across every size class (log-uniform
// sizes) with finite exponential lifetimes, so spans of every capacity
// churn through the central free lists and their return rates are
// observable within a run. Production telemetry aggregates two weeks;
// this compresses the same churn into the run window.
func cflStudyProfile() workload.Profile {
	return workload.Profile{
		Name: "cfl-study",
		SizeDist: rng.NewMixture(
			// Log-uniform over 8B..256KiB with extra weight on the small
			// octaves, matching the fleet's small-object dominance.
			logUniformComponents(3, 17)...,
		),
		Lifetime: workload.LifetimeModel{Bands: []workload.LifetimeBand{
			{MaxSize: 1 << 62, Dist: rng.ExpDist{Mean: 4e6}}, // ~4ms churn
		}},
		MallocFraction: 0.05,
		MeanAllocGapNs: 2500,
		Threads:        workload.ThreadDynamics{Base: 16, Amplitude: 14, PeriodNs: workload.Hour},
		CPUSet:         16,
	}
}

// logUniformComponents builds one uniform component per power-of-two
// octave [2^lo, 2^hi).
func logUniformComponents(lo, hi int) []rng.Component {
	var out []rng.Component
	for e := lo; e < hi; e++ {
		w := 1.0
		if e < 8 {
			w = 6 // small octaves dominate object counts (Fig. 7)
		}
		out = append(out, rng.Component{
			Weight: w,
			Dist:   rng.Uniform{Lo: float64(int64(1) << uint(e)), Hi: float64(int64(1) << uint(e+1))},
		})
	}
	return out
}
