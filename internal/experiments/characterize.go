package experiments

import (
	"fmt"

	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/profiler"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/stats"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// Fig3 reproduces the binary popularity CDFs: the top 50 binaries cover
// only about half of fleet malloc cycles and ~65% of allocated memory,
// the paper's argument that no single killer app exists.
func Fig3(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig3",
		Title:      "CDF of malloc cycles and allocated memory vs top binaries",
		PaperClaim: "top 50 binaries cover ~50% of malloc cycles and ~65% of allocated memory",
	}
	cat := fleet.NewBinaryCatalog(2000, seed)
	for _, k := range []int{1, 5, 10, 20, 30, 40, 50} {
		r.addf("top %-3d binaries: %5.1f%% of malloc cycles, %5.1f%% of allocated memory",
			k, cat.TopCycleShare(k)*100, cat.TopMemoryShare(k)*100)
	}
	return r
}

// Fig4 measures the mean allocation latency for hits in each tier of the
// cache hierarchy by engineering the allocator state before each probe.
func Fig4(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig4",
		Title:      "allocation latency per cache tier",
		PaperClaim: "CPUCache 3.1ns, TransferCache ~21ns, CentralFreeList ~59ns, PageHeap 137.4ns, mmap 12916.7ns",
	}
	cfg := core.BaselineConfig()
	cfg.SampleIntervalBytes = 0 // keep sampling cost out of the probes
	a := core.New(cfg, topology.New(topology.Default()))
	const size = 64
	const probes = 64

	// Cold start: the very first allocation pays mmap + pageheap + CFL.
	_, coldCost := a.Malloc(size, 0)

	measure := func(objSize int, prep func()) float64 {
		total := 0.0
		for i := 0; i < probes; i++ {
			prep()
			addr, c := a.Malloc(objSize, 0)
			total += c
			a.Free(addr, objSize, 0)
		}
		return total / probes
	}

	// Per-CPU cache hit: a freshly freed object sits in the vCPU cache.
	cpuHit := measure(size, func() {
		addr, _ := a.Malloc(size, 0)
		a.Free(addr, size, 0)
	})

	// Transfer cache hit: drain the front-end so objects live in the TC.
	tcHit := measure(size, func() {
		addr, _ := a.Malloc(size, 0)
		a.Free(addr, size, 0)
		a.FrontEnd().DrainAll()
	})

	// Central free list hit: drain front-end and transfer cache; spans
	// retain free objects.
	cflHit := measure(size, func() {
		addr, _ := a.Malloc(size, 0)
		a.Free(addr, size, 0)
		a.DrainCaches()
	})

	// Pageheap hit: use a size class whose spans hold a single object, so
	// draining the caches releases the span and the next allocation must
	// grow one from the (warm) pageheap.
	const bigSize = 200 << 10
	heapHit := measure(bigSize, func() {
		addr, _ := a.Malloc(bigSize, 0)
		a.Free(addr, bigSize, 0)
		a.DrainCaches()
	})

	r.addf("%-16s %10.1f ns", "CPUCache", cpuHit)
	r.addf("%-16s %10.1f ns", "TransferCache", tcHit)
	r.addf("%-16s %10.1f ns", "CentralFreeList", cflHit)
	r.addf("%-16s %10.1f ns", "PageHeap", heapHit)
	r.addf("%-16s %10.1f ns (first allocation: mmap + all tiers)", "mmap", coldCost)
	return r
}

// runWarm runs a profile and returns the post-warm-up cycle breakdown
// (the first 40% of the run builds caches and heap and is excluded, as a
// production profile window would be) plus the final result.
func runWarm(p workload.Profile, cfg core.Config, seed uint64, duration int64) (core.TimeBreakdown, workload.Result) {
	topo := topology.New(topology.Default())
	alloc := core.New(cfg, topo)
	opts := workload.DefaultOptions(seed)
	opts.Duration = duration
	var warm core.TimeBreakdown
	captured := false
	opts.SnapshotEveryNs = duration * 2 / 5
	opts.Snapshot = func(now int64) {
		if !captured {
			warm = alloc.Stats().Time
			captured = true
		}
	}
	res := workload.Run(p, alloc, opts)
	return res.Stats.Time.Sub(warm), res
}

// Fig5 reports the malloc cycle share (5a) and the fragmentation ratio
// (5b) for the fleet, the top-5 production workloads, and SPEC.
func Fig5(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig5",
		Title:      "malloc cycles share and memory fragmentation ratio",
		PaperClaim: "fleet 4.3% malloc cycles (apps 3.6-10.1%, SPEC ~0); fleet fragmentation 22.2% (apps 11.2-42.5%)",
	}
	profiles := append([]workload.Profile{workload.Fleet()}, workload.ProductionProfiles()...)
	profiles = append(profiles, workload.SPECLike())
	dur := scale.duration(120 * workload.Millisecond)
	for _, p := range profiles {
		res, _ := runProfile(&r, p, core.BaselineConfig(), seed, dur)
		st := res.Stats
		// Malloc share against the profile-calibrated application work.
		mallocShare := 0.0
		if res.TotalCPUNs > 0 {
			mallocShare = res.MallocNs / res.TotalCPUNs * 100
		}
		r.addf("%-14s malloc cycles %5.2f%%   fragmentation %5.1f%% (ext %4.1f%% + int %4.1f%%)",
			p.Name, mallocShare,
			st.FragmentationRatio()*100,
			float64(st.ExternalFragBytes())/float64(max64(st.LiveRequestedBytes, 1))*100,
			float64(st.InternalFragBytes())/float64(max64(st.LiveRequestedBytes, 1))*100)
	}
	return r
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Fig6 reports the malloc cycle breakdown by component (6a) and the
// fragmentation breakdown by tier (6b).
func Fig6(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig6",
		Title:      "CPU cycle and fragmentation breakdown by allocator component",
		PaperClaim: "cycles: CPUCache 53%, TC 3%, CFL 12%, PageHeap 3%, Sampled 4%, Prefetch 16%; frag: CFL 29%, PageHeap 51%, Internal 15%",
	}
	dur := scale.duration(120 * workload.Millisecond)
	profiles := append([]workload.Profile{workload.Fleet()}, workload.ProductionProfiles()...)
	for _, p := range profiles {
		warm, _ := runWarm(p, core.BaselineConfig(), seed, dur)
		sh := warm.Shares()
		r.addf("%-10s cycles: CPUCache %4.1f%%  TC %4.1f%%  CFL %4.1f%%  PageHeap %4.1f%%  Mmap %4.1f%%  Prefetch %4.1f%%  Sampled %4.1f%%  Other %4.1f%%",
			p.Name, sh["CPUCache"]*100, sh["TransferCache"]*100, sh["CentralFreeList"]*100,
			sh["PageHeap"]*100, sh["Mmap"]*100, sh["Prefetch"]*100, sh["Sampled"]*100, sh["Other"]*100)
	}
	for _, p := range profiles {
		res, _ := runProfile(&r, p, core.BaselineConfig(), seed+1, dur)
		f := res.Stats.Frag
		total := float64(max64(f.Total(), 1))
		r.addf("%-10s frag:   CPUCache %4.1f%%  TC %4.1f%%  CFL %4.1f%%  PageHeap %4.1f%%  Internal %4.1f%%",
			p.Name, float64(f.CPUCache)/total*100, float64(f.TransferCache)/total*100,
			float64(f.CentralFreeList)/total*100, float64(f.PageHeap)/total*100,
			float64(f.Internal)/total*100)
	}
	return r
}

// Fig7 reproduces the object size CDFs through the GWP-style profiler.
func Fig7(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig7",
		Title:      "CDF of allocated objects by count and by bytes",
		PaperClaim: "<1KiB: 98% of objects, 28% of memory; >8KiB: 50% of memory; >256KiB: 22% of memory",
	}
	p := profiler.New()
	fleetProf := workload.Fleet()
	rr := rng.New(seed)
	n := int(float64(2_000_000) * float64(scale))
	for i := 0; i < n; i++ {
		size := int(fleetProf.SizeDist.Sample(rr))
		if size < 1 {
			size = 1
		}
		p.Record(size, fleetProf.Lifetime.Sample(rr, size))
	}
	points := []float64{64, 256, 1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 64 << 20}
	byCount, byBytes := p.SizeCDF(points)
	for i, x := range points {
		r.addf("size <= %-9s objects %6.2f%%   memory %6.2f%%",
			byteLabel(x), byCount[i]*100, byBytes[i]*100)
	}
	return r
}

func byteLabel(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.0fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.0fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// Fig8 reproduces the lifetime-by-size distribution, fleet vs SPEC.
func Fig8(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig8",
		Title:      "object lifetime distribution by size, fleet vs SPEC",
		PaperClaim: "fleet lifetimes span 10 decades (46% of <1KiB die <1ms; 65% of >1GiB live >1 day); SPEC is bimodal",
	}
	build := func(p workload.Profile) *profiler.Profiler {
		pr := profiler.New()
		rr := rng.New(seed)
		n := int(float64(400_000) * float64(scale))
		for i := 0; i < n; i++ {
			size := int(p.SizeDist.Sample(rr))
			if size < 1 {
				size = 1
			}
			pr.Record(size, p.Lifetime.Sample(rr, size))
		}
		return pr
	}
	fp := build(workload.Fleet())
	sp := build(workload.SPECLike())
	r.addf("fleet: %5.1f%% of <=1KiB objects live <1ms (paper: 46%%)",
		fp.ShortLivedFraction(1<<10, workload.Millisecond)*100)
	// The generator caps huge allocations at 64 MiB, so the largest
	// reachable band stands in for the paper's >1 GiB row.
	r.addf("fleet: %5.1f%% of >=16MiB objects live >1 day (paper, for >1GiB: 65%%)",
		fp.LongLivedFraction(16<<20, workload.Day)*100)
	r.addf("lifetime entropy: fleet %.2f bits vs SPEC %.2f bits", fp.LifetimeEntropyBits(), sp.LifetimeEntropyBits())
	r.addf("fleet lifetime matrix:")
	for _, line := range splitLines(fp.String()) {
		r.addf("  %s", line)
	}
	r.addf("SPEC lifetime matrix:")
	for _, line := range splitLines(sp.String()) {
		r.addf("  %s", line)
	}
	return r
}

func splitLines(s string) []string {
	var out []string
	for _, l := range split(s, '\n') {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

func split(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

// Fig9 reports the thread-count dynamics (9a) and the per-vCPU miss
// disparity (9b).
func Fig9(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "fig9",
		Title:      "worker-thread dynamics and per-vCPU miss-ratio disparity",
		PaperClaim: "thread count fluctuates constantly; vCPU 0 sees the most misses, high-index vCPUs far fewer",
	}
	dur := scale.duration(200 * workload.Millisecond)
	res, rt := runProfile(&r, workload.Monarch(), core.BaselineConfig(), seed, dur)

	var s stats.Summary
	min, max := res.ThreadSeries[0], res.ThreadSeries[0]
	for _, v := range res.ThreadSeries {
		s.Add(float64(v))
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	r.addf("threads over run: mean %.1f  min %d  max %d  stddev %.1f (n=%d samples)",
		s.Mean(), min, max, s.StdDev(), s.N())

	misses := rt.Alloc().FrontEnd().MissCounts()
	var total int64
	for _, m := range misses {
		total += m
	}
	if total > 0 {
		for i := 0; i < len(misses); i += maxInt(1, len(misses)/12) {
			r.addf("vCPU %-3d miss share %6.3f%%", i, float64(misses[i])/float64(total)*100)
		}
		if misses[0] <= misses[len(misses)-1] {
			r.addf("WARNING: no low-index bias observed")
		} else {
			r.addf("vCPU 0 miss share is %.1fx the highest-index vCPU's",
				float64(misses[0])/float64(max64(misses[len(misses)-1], 1)))
		}
	}
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
