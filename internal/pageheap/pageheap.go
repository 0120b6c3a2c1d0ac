package pageheap

import (
	"errors"
	"fmt"
	"math"

	"wsmalloc/internal/check"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/telemetry"
)

// Config controls pageheap behaviour.
type Config struct {
	// Filler is the lifetime policy: any policy but FillerNone packs
	// short-lived spans on a dedicated hugepage set (§4.4).
	Filler Policy
	// MaxHugeCacheBytes bounds the HugeCache (0 = unbounded).
	MaxHugeCacheBytes int64
	// SubreleaseDensityLimit protects hugepages above this allocation
	// density from subrelease (skip-subrelease, Maas et al.). Zero means
	// the default of 0.7.
	SubreleaseDensityLimit float64
}

// DefaultConfig returns the baseline configuration (lifetime-aware filler
// off, 1 GiB hugepage cache).
func DefaultConfig() Config {
	return Config{MaxHugeCacheBytes: 1 << 30, SubreleaseDensityLimit: 0.7}
}

type placementKind uint8

const (
	placeFiller placementKind = iota
	placeRegion
	placeCache
	placeDonated
)

type placement struct {
	kind     placementKind
	pages    int
	lifetime Lifetime
	// hugepages and tailUsed describe placeDonated/placeCache layouts.
	hugepages int
	tailUsed  int
}

// PageHeap is the hugepage-aware back-end: it routes span allocations to
// the HugeFiller, HugeRegion, or HugeCache exactly as TCMalloc's
// HugePageAwareAllocator does, and implements the gradual release policy.
type PageHeap struct {
	os      *mem.OS
	cfg     Config
	fillers [numLifetimes]*Filler
	region  *HugeRegion
	cache   *HugeCache

	live map[mem.PageID]placement

	// largeUsedPages tracks pages used by cache-backed large allocations
	// (excluding donated tails, which the filler accounts).
	largeUsedPages int64

	allocs, frees int64

	// Graceful-degradation counters for the fault-injection harness.
	pressureEvents        int64
	pressureReleasedBytes int64
	oomFailures           int64

	tel *telemetry.Sink
}

// SetTelemetry installs the telemetry sink on the heap and its fillers
// (nil disables).
func (p *PageHeap) SetTelemetry(s *telemetry.Sink) {
	p.tel = s
	for _, f := range p.fillers {
		f.SetTelemetry(s)
	}
}

// SetClock installs the virtual-time source on the heap's components so
// free spans can be timestamped for the pageheapz age histograms.
func (p *PageHeap) SetClock(fn func() int64) {
	for _, f := range p.fillers {
		f.SetClock(fn)
	}
	p.cache.SetClock(fn)
}

// New creates a pageheap over the simulated OS.
func New(o *mem.OS, cfg Config) *PageHeap {
	p := &PageHeap{
		os:  o,
		cfg: cfg,
		// Sized for the thousands of concurrently-live placements a
		// steady-state machine holds, so the hot Alloc path is not
		// repeatedly growing (and rehashing) the table from scratch.
		live: make(map[mem.PageID]placement, 4096),
	}
	p.cache = NewHugeCache(o, cfg.MaxHugeCacheBytes)
	p.region = NewHugeRegion(o, func(start mem.HugePageID, n int) { p.cache.Free(start, n) })
	for i := range p.fillers {
		p.fillers[i] = NewFiller(o, func(h mem.HugePageID) { p.cache.Free(h, 1) })
	}
	return p
}

// fillerFor selects the filler set for a lifetime class.
func (p *PageHeap) fillerFor(lt Lifetime) *Filler {
	if p.cfg.Filler == FillerNone {
		return p.fillers[LifetimeLong]
	}
	return p.fillers[lt]
}

// Swap retunes the heap to a new configuration mid-run. Live placements
// are unaffected — each one recorded the filler that actually owns its
// pages — so only future allocations see the new lifetime policy, while
// the hugepage cache re-trims immediately to the new bound. A Swap on a
// freshly constructed heap is indistinguishable from construction with
// cfg.
func (p *PageHeap) Swap(cfg Config) {
	p.cfg = cfg
	p.cache.setBound(cfg.MaxHugeCacheBytes)
}

// Alloc obtains pages contiguous TCMalloc pages. lt classifies the
// expected span lifetime (ignored unless the lifetime-aware filler is
// enabled). The returned range is tracked until freed with Free.
//
// Allocation failure (an injected fault or an exhausted memory budget in
// the simulated OS) is a first-class outcome: on the first ErrNoMemory
// the heap sheds every byte it can spare — the whole hugepage cache, then
// subrelease of all free filler pages with the skip-subrelease density
// limit suspended — and retries once before surfacing the error.
func (p *PageHeap) Alloc(pages int, lt Lifetime) (mem.PageID, error) {
	if pages <= 0 {
		panic(fmt.Sprintf("pageheap: alloc of %d pages", pages))
	}
	start, pl, err := p.place(pages, lt)
	if err != nil {
		if errors.Is(err, mem.ErrNoMemory) {
			p.releaseUnderPressure()
			start, pl, err = p.place(pages, lt)
		}
		if err != nil {
			p.oomFailures++
			return 0, err
		}
	}
	p.allocs++
	if _, dup := p.live[start]; dup {
		panic(fmt.Sprintf("pageheap: duplicate allocation at page %#x", start.Addr()))
	}
	p.live[start] = pl
	return start, nil
}

// place routes one allocation to a back-end without the pressure retry.
func (p *PageHeap) place(pages int, lt Lifetime) (mem.PageID, placement, error) {
	if pages < mem.PagesPerHugePage {
		start, err := p.allocFiller(pages, lt)
		if p.cfg.Filler == FillerNone {
			// Record the filler the span actually lives in, not the raw
			// classification: Free must route back to the same filler even
			// if a mid-run Swap toggles lifetime awareness later.
			lt = LifetimeLong
		}
		return start, placement{kind: placeFiller, pages: pages, lifetime: lt}, err
	}
	huges := (pages + mem.PagesPerHugePage - 1) / mem.PagesPerHugePage
	slack := huges*mem.PagesPerHugePage - pages
	switch {
	case slack == 0:
		h, err := p.cache.Alloc(huges)
		if err != nil {
			return 0, placement{}, err
		}
		p.largeUsedPages += int64(pages)
		return h.FirstPage(), placement{kind: placeCache, pages: pages, hugepages: huges}, nil
	case huges <= 2 && slack >= mem.PagesPerHugePage/4:
		// Slightly exceeding a hugepage with substantial slack: pack
		// into a shared region so slack overlaps (e.g. the paper's
		// 2.1 MiB example).
		start, err := p.region.Alloc(pages)
		if err != nil {
			return 0, placement{}, err
		}
		return start, placement{kind: placeRegion, pages: pages}, nil
	default:
		// Whole hugepages plus a tail remainder donated to the
		// filler (e.g. 4.5 MiB donates 1.5 MiB of slack).
		h, err := p.cache.Alloc(huges)
		if err != nil {
			return 0, placement{}, err
		}
		tailUsed := pages - (huges-1)*mem.PagesPerHugePage
		p.fillers[LifetimeLong].AddDonated(h+mem.HugePageID(huges-1), tailUsed)
		p.largeUsedPages += int64((huges - 1) * mem.PagesPerHugePage)
		return h.FirstPage(), placement{kind: placeDonated, pages: pages, hugepages: huges, tailUsed: tailUsed}, nil
	}
}

func (p *PageHeap) allocFiller(pages int, lt Lifetime) (mem.PageID, error) {
	f := p.fillerFor(lt)
	if start, ok := f.Alloc(pages); ok {
		return start, nil
	}
	h, err := p.cache.Alloc(1)
	if err != nil {
		return 0, err
	}
	f.AddHugePage(h)
	start, ok := f.Alloc(pages)
	if !ok {
		panic("pageheap: fresh hugepage cannot satisfy sub-hugepage allocation")
	}
	return start, nil
}

// releaseUnderPressure sheds every releasable byte: the whole hugepage
// cache plus subrelease of all free filler pages, ignoring the
// skip-subrelease density limit. Breaking dense hugepages costs TLB
// benefit, but under memory pressure staying alive beats staying fast.
func (p *PageHeap) releaseUnderPressure() int64 {
	p.pressureEvents++
	released := p.cache.ReleaseAll()
	for _, f := range p.fillers {
		released += int64(f.ReleasePages(math.MaxInt32, 1.0)) * mem.PageSize
	}
	p.pressureReleasedBytes += released
	p.tel.Event(telemetry.EvHeapPressure, released, 0)
	return released
}

// Free returns a range previously obtained from Alloc.
func (p *PageHeap) Free(start mem.PageID, pages int) {
	pl, ok := p.live[start]
	if !ok {
		panic(fmt.Sprintf("pageheap: free of untracked range at page %#x", start.Addr()))
	}
	if pl.pages != pages {
		panic(fmt.Sprintf("pageheap: free of %d pages, allocated %d", pages, pl.pages))
	}
	delete(p.live, start)
	p.frees++
	switch pl.kind {
	case placeFiller:
		// The placement carries the effective lifetime (collapsed to
		// LifetimeLong when the span was placed without lifetime
		// awareness), so this routes to the filler that owns the pages
		// regardless of the configuration now in force.
		p.fillers[pl.lifetime].Free(start, pages)
	case placeRegion:
		p.region.Free(start, pages)
	case placeCache:
		p.cache.Free(start.HugePage(), pl.hugepages)
		p.largeUsedPages -= int64(pages)
	case placeDonated:
		lead := pl.hugepages - 1
		p.cache.Free(start.HugePage(), lead)
		tail := start.HugePage() + mem.HugePageID(lead)
		p.fillers[LifetimeLong].Free(tail.FirstPage(), pl.tailUsed)
		p.largeUsedPages -= int64(lead * mem.PagesPerHugePage)
	}
}

// ReleaseAtLeast releases at least want bytes back to the OS when
// possible: first whole free hugepages from the cache (coverage
// preserving), then subrelease from the sparsest filler hugepages. It
// returns the bytes actually released.
func (p *PageHeap) ReleaseAtLeast(want int64) int64 {
	released := p.cache.ReleaseAtLeast(want)
	limit := p.cfg.SubreleaseDensityLimit
	if limit == 0 {
		limit = 0.7
	}
	if released < want && p.cfg.Filler != FillerNone {
		// Break short-lifetime hugepages first: they drain and unmap
		// whole soon, so the damage is transient, while a broken
		// long-lifetime hugepage loses its TLB benefit indefinitely.
		pages := int((want - released + mem.PageSize - 1) / mem.PageSize)
		released += int64(p.fillers[LifetimeShort].ReleasePages(pages, limit)) * mem.PageSize
	}
	if released < want {
		pages := int((want - released + mem.PageSize - 1) / mem.PageSize)
		released += int64(p.fillers[LifetimeLong].ReleasePages(pages, limit)) * mem.PageSize
	}
	return released
}

// Stats aggregates pageheap telemetry; the per-component split feeds
// Fig. 15 and the coverage number feeds Fig. 17a.
type Stats struct {
	// Per-component in-use bytes.
	FillerUsed, RegionUsed, LargeUsed int64
	// Per-component mapped-but-free bytes (external fragmentation).
	FillerFree, RegionFree, CacheFree int64
	// Subreleased bytes still inside filler hugepages.
	FillerReleased int64
	// UsedBytes and FreeBytes are component totals.
	UsedBytes, FreeBytes int64
	// HugepageCoverage is the fraction of in-use bytes backed by intact
	// hugepages.
	HugepageCoverage float64
	// Allocs and Frees count pageheap operations.
	Allocs, Frees int64
	// Cache hit statistics.
	CacheHits, CacheMisses int64
	// PressureEvents counts OOM-triggered emergency release passes;
	// PressureReleasedBytes is what they shed. OOMFailures counts Alloc
	// calls that still failed after the pressure retry.
	PressureEvents        int64
	PressureReleasedBytes int64
	OOMFailures           int64
}

// Stats computes a snapshot.
func (p *PageHeap) Stats() Stats {
	var fUsed, fFree, fReleased, fIntact int64
	for _, f := range p.fillers {
		fs := f.Stats()
		fUsed += fs.UsedBytes
		fFree += fs.FreeBytes
		fReleased += fs.ReleasedBytes
		fIntact += fs.UsedOnIntact
	}
	rs := p.region.Stats()
	cs := p.cache.Stats()
	s := Stats{
		FillerUsed:     fUsed,
		RegionUsed:     rs.UsedBytes,
		LargeUsed:      p.largeUsedPages * mem.PageSize,
		FillerFree:     fFree,
		RegionFree:     rs.FreeBytes,
		CacheFree:      cs.CachedBytes,
		FillerReleased: fReleased,
		Allocs:         p.allocs,
		Frees:          p.frees,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,

		PressureEvents:        p.pressureEvents,
		PressureReleasedBytes: p.pressureReleasedBytes,
		OOMFailures:           p.oomFailures,
	}
	s.UsedBytes = s.FillerUsed + s.RegionUsed + s.LargeUsed
	s.FreeBytes = s.FillerFree + s.RegionFree + s.CacheFree
	// Regions and cache-backed large allocations never subrelease, so
	// their used bytes are always hugepage-backed.
	intact := fIntact + s.RegionUsed + s.LargeUsed
	if s.UsedBytes > 0 {
		s.HugepageCoverage = float64(intact) / float64(s.UsedBytes)
	}
	return s
}

// Allocs returns the cumulative pageheap allocation count in O(1). It
// always equals Stats().Allocs; the hot CFL-refill accounting reads it
// per batch, so it must not touch any per-component state.
func (p *PageHeap) Allocs() int64 { return p.allocs }

// Fillers exposes the filler set for white-box telemetry (tests and the
// experiment harness).
func (p *PageHeap) Fillers() []*Filler {
	return []*Filler{p.fillers[LifetimeLong], p.fillers[LifetimeShort]}
}

// LiveRanges returns the number of outstanding allocations.
func (p *PageHeap) LiveRanges() int { return len(p.live) }

// CheckInvariants audits every back-end tier plus the simulated OS, then
// verifies byte conservation across them: each mapped byte must be
// accounted by exactly one tier, so filler used+free, region used+free,
// cached bytes and cache-backed large allocations must sum to exactly the
// OS's mapped bytes. It also recounts live placements against the
// per-tier used-byte totals.
func (p *PageHeap) CheckInvariants() []check.Violation {
	var vs []check.Violation
	for _, f := range p.fillers {
		vs = append(vs, f.CheckInvariants()...)
	}
	vs = append(vs, p.region.CheckInvariants()...)
	vs = append(vs, p.cache.CheckInvariants()...)
	vs = append(vs, p.os.CheckInvariants()...)

	s := p.Stats()
	accounted := s.FillerUsed + s.FillerFree + s.RegionUsed + s.RegionFree +
		s.CacheFree + s.LargeUsed
	if mapped := p.os.MappedBytes(); accounted != mapped {
		vs = append(vs, check.Violationf("pageheap", check.KindConservation,
			"tiers account for %d bytes but the OS has %d mapped (drift %+d)",
			accounted, mapped, accounted-mapped))
	}

	var livePages int64
	for start, pl := range p.live {
		if pl.pages <= 0 {
			vs = append(vs, check.Violationf("pageheap", check.KindStructure,
				"live placement at page %#x spans %d pages", start.Addr(), pl.pages))
		}
		livePages += int64(pl.pages)
	}
	if liveBytes := livePages * mem.PageSize; liveBytes != s.UsedBytes {
		vs = append(vs, check.Violationf("pageheap", check.KindConservation,
			"live placements total %d bytes but tiers report %d used",
			liveBytes, s.UsedBytes))
	}
	return vs
}
