package pageheap

import (
	"testing"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/rng"
)

func TestHugeCacheReuse(t *testing.T) {
	o := mem.NewOS()
	c := NewHugeCache(o, 0)
	h := cacheAlloc(c, 3)
	if c.Stats().Misses != 1 {
		t.Fatal("first alloc should miss")
	}
	c.Free(h, 3)
	if c.CachedBytes() != 3*mem.HugePageSize {
		t.Fatalf("CachedBytes = %d", c.CachedBytes())
	}
	h2 := cacheAlloc(c, 2)
	if c.Stats().Hits != 1 {
		t.Fatal("second alloc should hit")
	}
	if h2 != h {
		t.Fatalf("expected reuse of cached range start")
	}
	if c.CachedBytes() != mem.HugePageSize {
		t.Fatalf("CachedBytes after partial reuse = %d", c.CachedBytes())
	}
}

func TestHugeCacheBestFit(t *testing.T) {
	o := mem.NewOS()
	c := NewHugeCache(o, 0)
	a := cacheAlloc(c, 10)
	spacer := cacheAlloc(c, 1) // keeps a and b from coalescing
	b := cacheAlloc(c, 2)
	c.Free(a, 10)
	c.Free(b, 2)
	defer c.Free(spacer, 1)
	// Request 2: best fit is the 2-range, not the 10-range.
	got := cacheAlloc(c, 2)
	if got != b {
		t.Fatalf("best fit failed: got %v want %v", got, b)
	}
}

func TestHugeCacheCoalesce(t *testing.T) {
	o := mem.NewOS()
	c := NewHugeCache(o, 0)
	h := cacheAlloc(c, 4)
	c.Free(h, 1)
	c.Free(h+2, 1)
	c.Free(h+1, 1) // bridges the two
	c.Free(h+3, 1)
	if st := c.Stats(); st.Ranges != 1 {
		t.Fatalf("ranges = %d, want 1 after coalescing", st.Ranges)
	}
	if got := cacheAlloc(c, 4); got != h {
		t.Fatalf("coalesced range not reusable as a whole")
	}
}

func TestHugeCacheOverlapPanics(t *testing.T) {
	o := mem.NewOS()
	c := NewHugeCache(o, 0)
	h := cacheAlloc(c, 2)
	c.Free(h, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping free must panic")
		}
	}()
	c.Free(h+1, 1)
}

func TestHugeCacheTrim(t *testing.T) {
	o := mem.NewOS()
	c := NewHugeCache(o, 2*mem.HugePageSize)
	h := cacheAlloc(c, 5)
	c.Free(h, 5)
	if c.CachedBytes() > 2*mem.HugePageSize {
		t.Fatalf("cache over bound: %d", c.CachedBytes())
	}
	if c.Stats().ReleasedBytes != 3*mem.HugePageSize {
		t.Fatalf("ReleasedBytes = %d", c.Stats().ReleasedBytes)
	}
}

func TestHugeCacheReleaseAtLeast(t *testing.T) {
	o := mem.NewOS()
	c := NewHugeCache(o, 0)
	h := cacheAlloc(c, 4)
	c.Free(h, 4)
	got := c.ReleaseAtLeast(3 * mem.HugePageSize)
	if got != 3*mem.HugePageSize {
		t.Fatalf("released %d", got)
	}
	if c.CachedBytes() != mem.HugePageSize {
		t.Fatalf("CachedBytes = %d", c.CachedBytes())
	}
	if got := c.ReleaseAtLeast(10 * mem.HugePageSize); got != mem.HugePageSize {
		t.Fatalf("over-release returned %d", got)
	}
}

func TestHugeRegionPacksSlack(t *testing.T) {
	o := mem.NewOS()
	r := NewHugeRegion(o, nil)
	// 2.1 MiB ~ 269 pages: two such allocations share one multi-hugepage
	// region instead of taking 2 hugepages each.
	p1 := regionAlloc(r, 269)
	p2 := regionAlloc(r, 269)
	if o.MmapCalls() != 1 {
		t.Fatalf("expected one region mmap, got %d", o.MmapCalls())
	}
	if p1.HugePage() < r.regions[0].start || !r.Owns(p2) {
		t.Fatal("allocations outside region")
	}
	st := r.Stats()
	if st.UsedBytes != 2*269*mem.PageSize {
		t.Fatalf("UsedBytes = %d", st.UsedBytes)
	}
	r.Free(p1, 269)
	if len(r.regions) != 1 {
		t.Fatal("region released too early")
	}
	r.Free(p2, 269)
	if len(r.regions) != 0 {
		t.Fatal("empty region not released")
	}
	if o.MappedBytes() != 0 {
		t.Fatalf("region release leaked %d bytes", o.MappedBytes())
	}
}

func TestHugeRegionDoubleFreePanics(t *testing.T) {
	o := mem.NewOS()
	r := NewHugeRegion(o, nil)
	p := regionAlloc(r, 300)
	q := regionAlloc(r, 10) // keep region alive after first free
	_ = q
	r.Free(p, 300)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	r.Free(p, 300)
}

func TestPageHeapRouting(t *testing.T) {
	o := mem.NewOS()
	ph := New(o, DefaultConfig())

	// Sub-hugepage -> filler.
	small := heapAlloc(ph, 4, LifetimeLong)
	if !ph.fillers[LifetimeLong].Owns(small) {
		t.Fatal("small alloc not in filler")
	}
	// Exactly two hugepages -> cache (no slack).
	exact := heapAlloc(ph, 512, LifetimeLong)
	if ph.fillers[LifetimeLong].Owns(exact) || ph.region.Owns(exact) {
		t.Fatal("exact alloc misrouted")
	}
	// Slightly exceeding one hugepage -> region.
	slightly := heapAlloc(ph, 269, LifetimeLong)
	if !ph.region.Owns(slightly) {
		t.Fatal("2.1MiB-style alloc not in region")
	}
	// Large with slack -> cache with donated tail (4.5 MiB = 576 pages).
	big := heapAlloc(ph, 576, LifetimeLong)
	tail := big.HugePage() + 2
	if !ph.fillers[LifetimeLong].Owns(tail.FirstPage()) {
		t.Fatal("tail hugepage not donated to filler")
	}
	st := ph.Stats()
	wantUsed := int64(4+512+269+576) * mem.PageSize
	if st.UsedBytes != wantUsed {
		t.Fatalf("UsedBytes = %d, want %d", st.UsedBytes, wantUsed)
	}

	for _, a := range []struct {
		p mem.PageID
		n int
	}{{small, 4}, {exact, 512}, {slightly, 269}, {big, 576}} {
		ph.Free(a.p, a.n)
	}
	if st := ph.Stats(); st.UsedBytes != 0 {
		t.Fatalf("UsedBytes after drain = %d", st.UsedBytes)
	}
	if ph.LiveRanges() != 0 {
		t.Fatal("live ranges remain")
	}
}

func TestPageHeapMappedConservation(t *testing.T) {
	o := mem.NewOS()
	ph := New(o, DefaultConfig())
	r := rng.New(42)
	type alloc struct {
		p  mem.PageID
		n  int
		lt Lifetime
	}
	var live []alloc
	for i := 0; i < 3000; i++ {
		if r.Bool(0.6) || len(live) == 0 {
			n := 1 + r.Intn(700)
			lt := Lifetime(r.Intn(2))
			live = append(live, alloc{heapAlloc(ph, n, lt), n, lt})
		} else {
			i := r.Intn(len(live))
			v := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ph.Free(v.p, v.n)
		}
	}
	st := ph.Stats()
	if got := o.MappedBytes(); got != st.UsedBytes+st.FreeBytes {
		t.Fatalf("mapped %d != used %d + free %d", got, st.UsedBytes, st.FreeBytes)
	}
	total := 0
	for _, a := range live {
		total += a.n
	}
	if st.UsedBytes != int64(total)*mem.PageSize {
		t.Fatalf("UsedBytes = %d, want %d", st.UsedBytes, int64(total)*mem.PageSize)
	}
	if st.HugepageCoverage != 1.0 {
		t.Fatalf("coverage without subrelease = %v, want 1", st.HugepageCoverage)
	}
	for _, a := range live {
		ph.Free(a.p, a.n)
	}
	if st := ph.Stats(); st.UsedBytes != 0 {
		t.Fatalf("not drained: %+v", st)
	}
}

func TestPageHeapReleaseLowersCoverage(t *testing.T) {
	o := mem.NewOS()
	ph := New(o, Config{MaxHugeCacheBytes: 0})
	// 150/256 pages = 59% density: below the skip-subrelease limit, so
	// these hugepages are legal subrelease targets once half-drained.
	var allocs []mem.PageID
	for i := 0; i < 64; i++ {
		allocs = append(allocs, heapAlloc(ph, 150, LifetimeLong))
	}
	// Free half: alternating, so hugepages stay partially full.
	for i := 0; i < 64; i += 2 {
		ph.Free(allocs[i], 150)
	}
	before := ph.Stats()
	// Demand more than the 64 MiB of whole free hugepages in the cache so
	// the release policy must fall through to filler subrelease.
	released := ph.ReleaseAtLeast(80 << 20)
	if released <= 0 {
		t.Fatal("nothing released")
	}
	after := ph.Stats()
	if after.HugepageCoverage >= before.HugepageCoverage {
		t.Fatalf("coverage should drop after subrelease: %v -> %v",
			before.HugepageCoverage, after.HugepageCoverage)
	}
	if o.SubreleaseOps() == 0 {
		t.Fatal("no subrelease happened")
	}
}

func TestPageHeapLifetimeSeparation(t *testing.T) {
	o := mem.NewOS()
	ph := New(o, Config{Filler: FillerCapacity, MaxHugeCacheBytes: 256 << 20})
	long := heapAlloc(ph, 10, LifetimeLong)
	short := heapAlloc(ph, 10, LifetimeShort)
	if long.HugePage() == short.HugePage() {
		t.Fatal("lifetime classes share a hugepage")
	}
	if !ph.fillers[LifetimeLong].Owns(long) || ph.fillers[LifetimeLong].Owns(short) {
		t.Fatal("long span misrouted")
	}
	if !ph.fillers[LifetimeShort].Owns(short) {
		t.Fatal("short span misrouted")
	}
	// Without lifetime awareness both land in the same filler.
	ph2 := New(mem.NewOS(), DefaultConfig())
	a := heapAlloc(ph2, 10, LifetimeLong)
	b := heapAlloc(ph2, 10, LifetimeShort)
	if a.HugePage() != b.HugePage() {
		t.Fatal("baseline should share hugepages across lifetimes")
	}
}

func TestPageHeapFreePanics(t *testing.T) {
	ph := New(mem.NewOS(), DefaultConfig())
	p := heapAlloc(ph, 10, LifetimeLong)
	t.Run("untracked", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		ph.Free(p+1, 9)
	})
	t.Run("wrong size", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		ph.Free(p, 11)
	})
}

func TestPageHeapStatsComponentsSum(t *testing.T) {
	o := mem.NewOS()
	ph := New(o, DefaultConfig())
	heapAlloc(ph, 100, LifetimeLong) // filler
	heapAlloc(ph, 269, LifetimeLong) // region
	heapAlloc(ph, 512, LifetimeLong) // cache
	heapAlloc(ph, 600, LifetimeLong) // donated
	st := ph.Stats()
	if st.UsedBytes != st.FillerUsed+st.RegionUsed+st.LargeUsed {
		t.Fatal("used components don't sum")
	}
	if st.FreeBytes != st.FillerFree+st.RegionFree+st.CacheFree {
		t.Fatal("free components don't sum")
	}
}

func TestPageHeapPropertyWithInterleavedRelease(t *testing.T) {
	// Random alloc/free/release interleaving under the lifetime-aware
	// configuration: mapped-byte conservation and exact drain must hold
	// no matter when subrelease breaks hugepages.
	o := mem.NewOS()
	ph := New(o, Config{Filler: FillerCapacity, MaxHugeCacheBytes: 64 << 20, SubreleaseDensityLimit: 0.9})
	r := rng.New(777)
	type alloc struct {
		p  mem.PageID
		n  int
		lt Lifetime
	}
	var live []alloc
	usedPages := int64(0)
	for i := 0; i < 8000; i++ {
		switch {
		case r.Bool(0.55) || len(live) == 0:
			n := 1 + r.Intn(600)
			lt := Lifetime(r.Intn(2))
			live = append(live, alloc{heapAlloc(ph, n, lt), n, lt})
			usedPages += int64(n)
		case r.Bool(0.05):
			ph.ReleaseAtLeast(int64(r.Intn(32)) << 20)
		default:
			j := r.Intn(len(live))
			v := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			ph.Free(v.p, v.n)
			usedPages -= int64(v.n)
		}
		if i%500 == 0 {
			st := ph.Stats()
			if st.UsedBytes != usedPages*mem.PageSize {
				t.Fatalf("step %d: used %d != %d", i, st.UsedBytes, usedPages*mem.PageSize)
			}
			if got := o.MappedBytes(); got != st.UsedBytes+st.FreeBytes {
				t.Fatalf("step %d: mapped %d != used+free %d", i, got, st.UsedBytes+st.FreeBytes)
			}
			if st.HugepageCoverage < 0 || st.HugepageCoverage > 1 {
				t.Fatalf("coverage %v", st.HugepageCoverage)
			}
		}
	}
	for _, v := range live {
		ph.Free(v.p, v.n)
	}
	if st := ph.Stats(); st.UsedBytes != 0 {
		t.Fatalf("drain residue: %+v", st)
	}
}

// Test helpers: the error paths of Alloc are exercised by the fault
// tests; everything else treats allocation failure as a fatal setup bug.
func mustMap(o *mem.OS, n int) mem.HugePageID {
	h, err := o.MapHuge(n)
	if err != nil {
		panic(err)
	}
	return h
}

func cacheAlloc(c *HugeCache, n int) mem.HugePageID {
	h, err := c.Alloc(n)
	if err != nil {
		panic(err)
	}
	return h
}

func regionAlloc(r *HugeRegion, n int) mem.PageID {
	p, err := r.Alloc(n)
	if err != nil {
		panic(err)
	}
	return p
}

func heapAlloc(ph *PageHeap, n int, lt Lifetime) mem.PageID {
	p, err := ph.Alloc(n, lt)
	if err != nil {
		panic(err)
	}
	return p
}
