package core

import (
	"errors"
	"fmt"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/check"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/sizeclass"
	"wsmalloc/internal/span"
	"wsmalloc/internal/stats"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/transfercache"
)

// ErrNoMemory is returned by TryMalloc when an allocation cannot be
// satisfied even after draining caches and releasing free memory. It
// aliases the simulated OS's sentinel so errors.Is works across layers.
var ErrNoMemory = mem.ErrNoMemory

// ErrBadFree is returned by TryFree for an invalid free: an unknown
// pointer, a double free caught by the shadow heap, or a size that does
// not fit the owning span's class. The allocator's state is left
// unmodified by a rejected free.
var ErrBadFree = errors.New("core: invalid free")

// Allocator is the composed TCMalloc model for one process on one
// machine.
type Allocator struct {
	cfg   Config
	topo  *topology.Topology
	vmap  *topology.VCPUMap
	table *sizeclass.Table

	// design is the canonical design-point string of the most recent
	// ApplyDesignPoint, or "" while the construction-time configuration
	// is still in force. The snapshot codec records it so a mid-run swap
	// checkpoints and resumes transparently.
	design string

	os *mem.OS
	// spans is the machine's span slab: every central-free-list span and
	// every live large span, addressed by the IDs the pagemap holds.
	spans    span.Slab
	pagemap  *mem.PageMap
	heap     *pageheap.PageHeap
	cfls     []*centralfreelist.List
	transfer *transfercache.TransferCaches
	front    *percpu.Caches
	shadow   *check.ShadowHeap

	now int64

	bytesUntilSample int64

	lastPlunder, lastRelease int64

	t costCounters

	tel           *telemetry.Sink
	allocSizeHist *telemetry.Histogram
	// allocSizeBuf buffers per-malloc size observations without
	// synchronization (the allocator is single-threaded); fillGauges
	// folds it into allocSizeHist at snapshot boundaries so the malloc
	// hot path never takes the histogram mutex.
	allocSizeBuf *stats.LogHistogram

	// hp is the sampled heap profiler; nil when disabled so the hot
	// paths pay a single nil check.
	hp *heapprof.Profiler
}

// costCounters accumulates cost-model time and operation counts.
type costCounters struct {
	timeCPUCache float64
	timeTransfer float64
	timeCFL      float64
	timePageHeap float64
	timeMmap     float64
	timePrefetch float64
	timeSampled  float64
	timeOther    float64

	mallocs, frees int64
	sampled        int64

	liveObjects       int64
	liveRequested     int64
	liveRounded       int64
	peakLiveRequested int64
	largeLiveBytes    int64
	largeLiveRounded  int64
	cumAllocatedBytes int64
	cumAllocatedObjs  int64

	oomErrors  int64
	freeErrors int64
}

// New builds an allocator on the given machine topology.
func New(cfg Config, topo *topology.Topology) *Allocator {
	a := &Allocator{
		cfg:     cfg,
		topo:    topo,
		vmap:    topology.NewVCPUMap(topo),
		table:   sizeclass.NewTable(),
		os:      mem.NewOS(),
		pagemap: mem.NewPageMap(),
	}
	a.heap = pageheap.New(a.os, cfg.PageHeap)
	n := a.table.NumClasses()
	a.cfls = make([]*centralfreelist.List, n)
	for i := 0; i < n; i++ {
		a.cfls[i] = centralfreelist.New(a.table.Class(i), cfg.CFL, a.heap, &a.spans, a.pagemap)
	}
	tcfg := cfg.Transfer
	if tcfg.Policy.UsesDomains() {
		tcfg.NumDomains = topo.NumDomains()
	}
	a.transfer = transfercache.New(tcfg, n, func(c int) int { return a.table.Class(c).Size },
		cflBacking{a})
	a.front = percpu.New(cfg.PerCPU, n,
		func(c int) int { return a.table.Class(c).Size },
		func(c int) int { return a.table.Class(c).BatchSize },
		func(vcpu int) int { return a.vmap.DomainOfVCPU(vcpu) },
		frontBacking{a})
	a.bytesUntilSample = cfg.SampleIntervalBytes
	a.os.SetFaultPlan(cfg.Faults)
	a.shadow = check.NewShadowHeap(cfg.Check)
	if cfg.Telemetry.Enabled {
		a.tel = telemetry.NewSink(cfg.Telemetry, func() int64 { return a.now })
		a.tel.SetGaugeFill(a.fillGauges)
		// Requested sizes span 8 B .. 2 GiB.
		a.allocSizeHist = a.tel.Registry().Histogram("alloc_size_bytes", 3, 31)
		a.allocSizeBuf = stats.NewLogHistogram(3, 31)
		a.front.SetTelemetry(a.tel)
		a.transfer.SetTelemetry(a.tel)
		for _, l := range a.cfls {
			l.SetTelemetry(a.tel)
		}
		a.heap.SetTelemetry(a.tel)
		a.os.SetTelemetry(a.tel)
	}
	a.hp = heapprof.New(cfg.HeapProfile)
	if a.hp != nil {
		// Feed observed per-class lifetime decades to the central free
		// lists' lifetime classification. Only the heap-profile filler
		// policy consults the feed, so installing it unconditionally
		// changes nothing under the other policies.
		for _, l := range a.cfls {
			l.SetLifetimeFeedback(a.hp.ClassLifetime)
		}
	}
	// The introspection views (free-span ages, pageheapz) need virtual
	// time below the core layer; install the clock unconditionally.
	a.heap.SetClock(func() int64 { return a.now })
	return a
}

// HeapProfiler returns the sampled heap profiler (nil when disabled).
func (a *Allocator) HeapProfiler() *heapprof.Profiler { return a.hp }

// HeapProfiles exports the profiler's three views (heapz, allocz,
// peakheapz) at the current virtual time under the given arm label.
// Returns nil when profiling is disabled.
func (a *Allocator) HeapProfiles(label string) []heapprof.Profile {
	if a.hp == nil {
		return nil
	}
	return a.hp.Profiles(a.now, label)
}

// Telemetry returns the allocator's metrics sink (nil when disabled).
func (a *Allocator) Telemetry() *telemetry.Sink { return a.tel }

// fillGauges projects the Stats snapshot into registry gauges so exports
// carry the characterization metrics alongside the event counters. All
// values are integral (ppm for ratios, whole ns for cost-model time) so
// fleet-level merges stay exact.
// flushSizeHist folds the buffered per-malloc size observations into
// the registry histogram. Called from fillGauges (which every snapshot
// and merge path runs first) and before state encoding, so the registry
// is always current when it becomes externally visible.
func (a *Allocator) flushSizeHist() {
	if a.allocSizeBuf != nil && a.allocSizeBuf.Total() > 0 {
		a.allocSizeHist.MergeLog(a.allocSizeBuf)
		a.allocSizeBuf.Reset()
	}
}

func (a *Allocator) fillGauges(reg *telemetry.Registry) {
	a.flushSizeHist()
	s := a.Stats()
	set := func(name string, v int64) { reg.Gauge(name).Set(v) }
	set("heap_bytes", s.HeapBytes)
	set("live_objects", s.LiveObjects)
	set("live_requested_bytes", s.LiveRequestedBytes)
	set("live_rounded_bytes", s.LiveRoundedBytes)
	set("peak_live_requested_bytes", s.PeakLiveRequestedBytes)
	set("mallocs", s.Mallocs)
	set("frees", s.Frees)
	set("sampled_allocs", s.SampledAllocs)
	set("cum_allocated_bytes", s.CumAllocatedBytes)
	set("oom_errors", s.OOMErrors)
	set("free_errors", s.FreeErrors)
	set("fault_injected_mmap_failures", s.Faults.InjectedFailures)
	set("fault_budget_denials", s.Faults.BudgetFailures)
	set("shadow_violations", s.ShadowViolations)
	set("frag_external_bytes", s.ExternalFragBytes())
	set("frag_internal_bytes", s.InternalFragBytes())
	set("frag_percpu_bytes", s.Frag.CPUCache)
	set("frag_transfer_bytes", s.Frag.TransferCache)
	set("frag_cfl_bytes", s.Frag.CentralFreeList)
	set("frag_pageheap_bytes", s.Frag.PageHeap)
	set("fragmentation_ratio_ppm", int64(s.FragmentationRatio()*1e6))
	set("hugepage_coverage_ppm", int64(s.HugepageCoverage*1e6))
	set("cfl_spans", int64(s.CFLSpans))
	set("cfl_spans_created", s.CFLSpansCreated)
	set("cfl_spans_released", s.CFLSpansReleased)
	set("time_cpucache_ns", int64(s.Time.CPUCache))
	set("time_transfer_ns", int64(s.Time.Transfer))
	set("time_cfl_ns", int64(s.Time.CentralFreeList))
	set("time_pageheap_ns", int64(s.Time.PageHeap))
	set("time_mmap_ns", int64(s.Time.Mmap))
	set("time_prefetch_ns", int64(s.Time.Prefetch))
	set("time_sampled_ns", int64(s.Time.Sampled))
	set("time_other_ns", int64(s.Time.Other))
}

// cflBacking adapts the central free lists to the transfer cache's
// Backing interface, charging CFL time (and pageheap/mmap time when the
// request reaches those tiers).
type cflBacking struct{ a *Allocator }

func (b cflBacking) AllocBatch(class int, out []uint64) (int, error) {
	a := b.a
	heapAllocs := a.heap.Allocs()
	mmaps := a.os.MmapCalls()
	n, err := a.cfls[class].AllocBatch(out)
	a.t.timeCFL += latCentralFreeList
	if d := a.heap.Allocs() - heapAllocs; d > 0 {
		a.t.timePageHeap += latPageHeap * float64(d)
	}
	if d := a.os.MmapCalls() - mmaps; d > 0 {
		a.t.timeMmap += latMmap * float64(d)
	}
	return n, err
}

func (b cflBacking) FreeBatch(class int, objs []uint64) {
	a := b.a
	a.cfls[class].FreeBatch(objs)
	a.t.timeCFL += latCentralFreeList
}

// frontBacking adapts the transfer cache layer to the per-CPU cache's
// Backing interface, charging transfer-cache time.
type frontBacking struct{ a *Allocator }

func (b frontBacking) Alloc(class, domain int, out []uint64) (int, error) {
	n, err := b.a.transfer.Alloc(class, domain, out)
	b.a.t.timeTransfer += latTransfer
	return n, err
}

func (b frontBacking) Free(class, domain int, objs []uint64) {
	b.a.transfer.Free(class, domain, objs)
	b.a.t.timeTransfer += latTransfer
}

// Now returns the allocator's virtual time.
func (a *Allocator) Now() int64 { return a.now }

// Table exposes the size-class table.
func (a *Allocator) Table() *sizeclass.Table { return a.table }

// Topology returns the machine topology.
func (a *Allocator) Topology() *topology.Topology { return a.topo }

// Malloc allocates size bytes from a thread running on physical CPU cpu,
// returning the object address and the modeled cost in nanoseconds. It
// panics if the simulated OS cannot supply memory; callers that want
// allocation failure as a value (fault-injection runs) use TryMalloc.
func (a *Allocator) Malloc(size, cpu int) (uint64, float64) {
	addr, cost, err := a.TryMalloc(size, cpu)
	if err != nil {
		panic(fmt.Sprintf("core: Malloc(%d) failed: %v", size, err))
	}
	return addr, cost
}

// TryMalloc is Malloc with allocation failure as a first-class outcome:
// it returns an error satisfying errors.Is(err, ErrNoMemory) when the OS
// cannot supply memory even after the allocator drains its caches and
// the pageheap releases everything it can spare.
func (a *Allocator) TryMalloc(size, cpu int) (uint64, float64, error) {
	return a.malloc(size, cpu, pageheap.LifetimeLong)
}

// MallocHinted is the §5 extension ("object lifetime and access density"):
// an application- or profile-guided lifetime annotation. Large
// allocations carry the hint straight to the hugepage filler, so
// short-hinted buffers are packed on the dedicated short-lived hugepage
// set even though their size alone would classify them long-lived. Small
// allocations are unaffected (their spans are classified by capacity).
func (a *Allocator) MallocHinted(size, cpu int, shortLived bool) (uint64, float64) {
	addr, cost, err := a.TryMallocHinted(size, cpu, shortLived)
	if err != nil {
		panic(fmt.Sprintf("core: MallocHinted(%d) failed: %v", size, err))
	}
	return addr, cost
}

// TryMallocHinted is MallocHinted with allocation failure as an error.
func (a *Allocator) TryMallocHinted(size, cpu int, shortLived bool) (uint64, float64, error) {
	lt := pageheap.LifetimeLong
	if shortLived {
		lt = pageheap.LifetimeShort
	}
	return a.malloc(size, cpu, lt)
}

func (a *Allocator) malloc(size, cpu int, largeLT pageheap.Lifetime) (uint64, float64, error) {
	cost := latOther
	a.t.timeOther += latOther

	var addr uint64
	class, small := a.table.ClassFor(size)
	if small {
		vcpu := a.vmap.Assign(cpu)
		start := a.timeSnapshot()
		got, hit, err := a.front.Alloc(vcpu, class.Index)
		if err != nil {
			// The OS refused new mappings and the caches are empty for
			// this class. Flush every cached object back toward the
			// central free lists — a partially-used span there can
			// satisfy the refill without any new mapping — and retry.
			a.DrainCaches()
			got, hit, err = a.front.Alloc(vcpu, class.Index)
			if err != nil {
				a.t.oomErrors++
				return 0, cost, fmt.Errorf("core: malloc of %d bytes (class %d): %w",
					size, class.Index, err)
			}
		}
		addr = got
		a.t.timeCPUCache += latCPUCache
		cost += latCPUCache
		if !hit {
			cost += a.timeSnapshot() - start
		}
		// TCMalloc prefetches the next object of the same class on every
		// allocation; costly (16% of malloc cycles) but key for data
		// cache locality (§3).
		a.t.timePrefetch += latPrefetch
		cost += latPrefetch
		a.t.liveRounded += int64(class.Size)
	} else {
		pages := (size + mem.PageSize - 1) / mem.PageSize
		mmaps := a.os.MmapCalls()
		start, err := a.heap.Alloc(pages, largeLT)
		if err != nil {
			a.t.oomErrors++
			return 0, cost, fmt.Errorf("core: malloc of %d bytes (%d pages): %w",
				size, pages, err)
		}
		id := a.spans.New(start, pages, span.LargeClass, pages*mem.PageSize, 1)
		s := a.spans.At(id)
		s.BornAt = a.now
		got, ok := a.spans.Allocate(id)
		if !ok {
			panic("core: fresh large span full")
		}
		addr = got
		a.pagemap.SetRange(start, pages, uint32(id), span.ClassTag(span.LargeClass))
		a.t.timePageHeap += latPageHeap
		cost += latPageHeap
		if d := a.os.MmapCalls() - mmaps; d > 0 {
			a.t.timeMmap += latMmap * float64(d)
			cost += latMmap * float64(d)
		}
		a.t.liveRounded += int64(pages) * mem.PageSize
		a.t.largeLiveRounded += int64(pages) * mem.PageSize
	}

	if a.shadow != nil {
		classIdx := span.LargeClass
		if small {
			classIdx = class.Index
		}
		a.shadow.RecordAlloc(addr, size, classIdx)
	}

	a.t.mallocs++
	a.t.liveObjects++
	a.t.liveRequested += int64(size)
	if a.hp != nil {
		if small {
			a.hp.SampleAlloc(addr, size, class.Index, class.Size, a.now)
		} else {
			pages := (size + mem.PageSize - 1) / mem.PageSize
			a.hp.SampleAlloc(addr, size, span.LargeClass, pages*mem.PageSize, a.now)
		}
		if a.t.liveRequested > a.t.peakLiveRequested {
			// Heap-pressure watchpoint: the live heap just reached a new
			// high-water mark; let the profiler decide whether to
			// re-capture peakheapz.
			a.hp.MaybePeak(a.t.liveRequested, a.now)
		}
	}
	if a.t.liveRequested > a.t.peakLiveRequested {
		a.t.peakLiveRequested = a.t.liveRequested
	}
	if !small {
		a.t.largeLiveBytes += int64(size)
	}
	a.t.cumAllocatedBytes += int64(size)
	a.t.cumAllocatedObjs++
	if a.allocSizeBuf != nil {
		a.allocSizeBuf.Add(float64(size))
	}

	if a.cfg.SampleIntervalBytes > 0 {
		a.bytesUntilSample -= int64(size)
		if a.bytesUntilSample <= 0 {
			a.bytesUntilSample += a.cfg.SampleIntervalBytes
			a.t.sampled++
			a.t.timeSampled += latSampled
			cost += latSampled
		}
	}
	return addr, cost, nil
}

// Free releases an object allocated with Malloc. size must be the
// original requested size (the caller always knows it; real malloc
// derives it from the span, which is exactly what the class check below
// validates). cpu is the physical CPU of the freeing thread.
//
// Free panics on an invalid free (unknown pointer, double free caught by
// the shadow heap, size exceeding the owning class) — the behaviour
// TestFreeUnknownAddressPanics and TestDoubleFreePanics pin down.
// Library code that must survive hostile input uses TryFree.
func (a *Allocator) Free(addr uint64, size, cpu int) float64 {
	cost, err := a.TryFree(addr, size, cpu)
	if err != nil {
		panic(err.Error())
	}
	return cost
}

// TryFree is Free with invalid frees as first-class errors satisfying
// errors.Is(err, ErrBadFree). A rejected free leaves every allocator
// tier unmodified, which is the point: with the shadow heap enabled, a
// double free is stopped before it can corrupt a cache or span. (The
// shadow's record of the address is consumed by the rejected free, so a
// later free of the same address reports double-free.)
func (a *Allocator) TryFree(addr uint64, size, cpu int) (float64, error) {
	// The pagemap caches each page's size class, so a small free never
	// touches its span here.
	id, tag := a.pagemap.Lookup(mem.PageID(addr >> mem.PageShift))
	if id == 0 {
		kind := check.KindUnknownFree
		if a.shadow != nil {
			if v, tracked := a.shadow.CheckFree(addr, size, span.LargeClass); v != nil && tracked {
				kind = v.Kind
			}
		}
		a.t.freeErrors++
		return 0, fmt.Errorf("core: free of unknown address %#x (%s): %w", addr, kind, ErrBadFree)
	}
	class := span.TagClass(tag)
	if a.shadow != nil {
		if v, tracked := a.shadow.CheckFree(addr, size, class); v != nil && tracked {
			a.t.freeErrors++
			return 0, fmt.Errorf("core: free of %#x rejected (%s): %w", addr, v.Kind, ErrBadFree)
		}
	}

	cost := latOther
	a.t.timeOther += latOther
	a.t.frees++
	if class == span.LargeClass {
		s := a.spans.At(span.ID(id))
		a.spans.FreeAddr(span.ID(id), addr)
		a.pagemap.ClearRange(s.Start, s.Pages)
		a.heap.Free(s.Start, s.Pages)
		a.t.timePageHeap += latPageHeap
		cost += latPageHeap
		a.t.liveRounded -= s.Bytes()
		a.t.largeLiveRounded -= s.Bytes()
		a.t.largeLiveBytes -= int64(size)
		a.spans.Release(span.ID(id))
	} else {
		classSize := a.table.ClassSize(class)
		if size > classSize {
			a.t.frees--
			a.t.freeErrors++
			return 0, fmt.Errorf("core: free size %d exceeds class size %d at %#x: %w",
				size, classSize, addr, ErrBadFree)
		}
		vcpu := a.vmap.Assign(cpu)
		start := a.timeSnapshot()
		hit := a.front.Free(vcpu, class, addr)
		a.t.timeCPUCache += latCPUCache
		cost += latCPUCache
		if !hit {
			cost += a.timeSnapshot() - start
		}
		a.t.liveRounded -= int64(classSize)
	}
	a.t.liveObjects--
	a.t.liveRequested -= int64(size)
	if a.hp != nil {
		a.hp.NoteFree(addr, a.now)
	}
	return cost, nil
}

// timeSnapshot sums the tier-time accumulators touched by slow paths;
// used to attribute slow-path cost to the triggering operation.
func (a *Allocator) timeSnapshot() float64 {
	return a.t.timeTransfer + a.t.timeCFL + a.t.timePageHeap + a.t.timeMmap
}

// Tick advances virtual time and runs background duties: the per-CPU
// cache resizer (§4.1), transfer cache plunder (§4.2), and the gradual
// release of free memory to the OS.
func (a *Allocator) Tick(now int64) {
	if now < a.now {
		panic("core: time went backwards")
	}
	a.now = now
	a.front.MaybeResize(now)
	a.front.MaybeDecay(now)
	if now-a.lastPlunder >= plunderIntervalNs {
		a.lastPlunder = now
		a.transfer.Plunder()
	}
	if a.cfg.ReleaseIntervalNs > 0 && now-a.lastRelease >= a.cfg.ReleaseIntervalNs {
		a.lastRelease = now
		hs := a.heap.Stats()
		slack := int64(releaseSlackFraction * float64(hs.UsedBytes))
		if excess := hs.FreeBytes - slack; excess > 0 {
			if excess > a.cfg.ReleaseBytesPerInterval {
				excess = a.cfg.ReleaseBytesPerInterval
			}
			a.heap.ReleaseAtLeast(excess)
		}
	}
	a.tel.MaybeSample(now)
}

// DrainCaches flushes the front-end and middle-tier caches back to the
// central free lists (used by tests and teardown accounting).
func (a *Allocator) DrainCaches() {
	a.front.DrainAll()
	a.transfer.Drain()
}

// FrontEnd exposes the per-CPU cache layer for white-box telemetry.
func (a *Allocator) FrontEnd() *percpu.Caches { return a.front }

// TransferLayer exposes the transfer caches for white-box telemetry.
func (a *Allocator) TransferLayer() *transfercache.TransferCaches { return a.transfer }

// CentralFreeList returns the per-class central free list.
func (a *Allocator) CentralFreeList(class int) *centralfreelist.List { return a.cfls[class] }

// PageHeap exposes the back-end.
func (a *Allocator) PageHeap() *pageheap.PageHeap { return a.heap }

// OS exposes the simulated operating system.
func (a *Allocator) OS() *mem.OS { return a.os }

// VCPUs returns the number of populated virtual CPUs.
func (a *Allocator) VCPUs() int { return a.vmap.Len() }
