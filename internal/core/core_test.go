package core

import (
	"math"
	"testing"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/sizeclass"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/transfercache"
)

func newAlloc(cfg Config) *Allocator {
	return New(cfg, topology.New(topology.Default()))
}

func TestMallocFreeRoundTrip(t *testing.T) {
	a := newAlloc(BaselineConfig())
	addr, cost := a.Malloc(100, 0)
	if cost <= 0 {
		t.Fatal("zero cost")
	}
	st := a.Stats()
	if st.LiveObjects != 1 || st.LiveRequestedBytes != 100 {
		t.Fatalf("live: %+v", st)
	}
	if st.LiveRoundedBytes != 112 { // 100 rounds to 112
		t.Fatalf("rounded = %d", st.LiveRoundedBytes)
	}
	a.Free(addr, 100, 0)
	st = a.Stats()
	if st.LiveObjects != 0 || st.LiveRequestedBytes != 0 || st.LiveRoundedBytes != 0 {
		t.Fatalf("not drained: %+v", st)
	}
}

func TestSecondMallocHitsFastPath(t *testing.T) {
	a := newAlloc(BaselineConfig())
	addr, first := a.Malloc(64, 0)
	a.Free(addr, 64, 0)
	_, second := a.Malloc(64, 0)
	if second >= first {
		t.Fatalf("fast path cost %v should beat cold path %v", second, first)
	}
	// Fast path is CPUCache + prefetch + other.
	want := latCPUCache + latPrefetch + latOther
	if math.Abs(second-want) > 1e-9 {
		t.Fatalf("fast path cost %v, want %v", second, want)
	}
}

func TestCostOrderingAcrossTiers(t *testing.T) {
	if !(latCPUCache < latTransfer && latTransfer < latCentralFreeList &&
		latCentralFreeList < latPageHeap && latPageHeap < latMmap) {
		t.Fatal("tier latencies must be ordered as in Fig. 4")
	}
}

func TestLargeAllocationBypassesCaches(t *testing.T) {
	a := newAlloc(BaselineConfig())
	addr, cost := a.Malloc(sizeclass.MaxSmallSize+1, 0)
	if cost < latPageHeap {
		t.Fatalf("large alloc cost %v below pageheap latency", cost)
	}
	st := a.Stats()
	if st.FrontEnd.AllocMisses+st.FrontEnd.AllocHits != 0 {
		t.Fatal("large allocation touched the front-end")
	}
	if st.Heap.UsedBytes == 0 {
		t.Fatal("pageheap unused")
	}
	freeCost := a.Free(addr, sizeclass.MaxSmallSize+1, 0)
	if freeCost < latPageHeap {
		t.Fatalf("large free cost %v", freeCost)
	}
	if st := a.Stats(); st.Heap.UsedBytes != 0 {
		t.Fatal("large span not returned")
	}
}

func TestFreeUnknownAddressPanics(t *testing.T) {
	a := newAlloc(BaselineConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Free(0xdeadbeef, 8, 0)
}

func TestDoubleFreePanics(t *testing.T) {
	a := newAlloc(BaselineConfig())
	addr, _ := a.Malloc(64, 0)
	a.Free(addr, 64, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// The object sits in the per-CPU cache; freeing again is a double
	// free that the span layer catches once it cycles back. Force the
	// cycle by draining first.
	a.DrainCaches()
	a.Free(addr, 64, 0)
}

func TestSamplingCadence(t *testing.T) {
	cfg := BaselineConfig()
	cfg.SampleIntervalBytes = 10000
	a := newAlloc(cfg)
	var addrs []uint64
	for i := 0; i < 100; i++ {
		addr, _ := a.Malloc(1000, 0)
		addrs = append(addrs, addr)
	}
	// 100 KB allocated at 10 KB interval: ~10 samples.
	if n := a.Stats().SampledAllocs; n < 9 || n > 11 {
		t.Fatalf("samples = %d, want ~10", n)
	}
	for _, addr := range addrs {
		a.Free(addr, 1000, 0)
	}
}

func TestConservationInvariant(t *testing.T) {
	a := newAlloc(OptimizedConfig())
	r := rng.New(99)
	type obj struct {
		addr uint64
		size int
	}
	var live []obj
	for i := 0; i < 30000; i++ {
		a.Tick(int64(i) * 1000)
		if r.Bool(0.55) || len(live) == 0 {
			size := 8 + r.Intn(4096)
			if r.Bool(0.01) {
				size = r.Intn(2 << 20)
			}
			addr, _ := a.Malloc(size, r.Intn(64))
			live = append(live, obj{addr, size})
		} else {
			j := r.Intn(len(live))
			o := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(o.addr, o.size, r.Intn(64))
		}
	}
	st := a.Stats()
	// Heap = live rounded + external fragmentation (cached everywhere).
	lhs := st.HeapBytes
	rhs := st.LiveRoundedBytes + st.ExternalFragBytes() +
		tailWasteAdjustment(a)
	if lhs != rhs {
		t.Fatalf("conservation broken: heap=%d, live+frag=%d (diff %d)", lhs, rhs, lhs-rhs)
	}
	// Drain everything and verify exact reclamation.
	for _, o := range live {
		a.Free(o.addr, o.size, 0)
	}
	a.DrainCaches()
	st = a.Stats()
	if st.LiveObjects != 0 || st.Heap.UsedBytes != 0 {
		t.Fatalf("not fully drained: %+v", st)
	}
}

// tailWasteAdjustment accounts for span tail waste, which is neither live
// nor counted in CFL free bytes... it IS counted in CFL FreeBytes, but
// spans parked in the filler include it; the conservation identity treats
// it via the CFL term, so the adjustment is zero. Kept as a named helper
// to document the identity.
func tailWasteAdjustment(*Allocator) int64 { return 0 }

func TestTimeBreakdownSharesSumToOne(t *testing.T) {
	a := newAlloc(BaselineConfig())
	r := rng.New(5)
	var live []struct {
		addr uint64
		size int
	}
	for i := 0; i < 20000; i++ {
		if r.Bool(0.5) || len(live) == 0 {
			size := 8 + r.Intn(1024)
			addr, _ := a.Malloc(size, r.Intn(8))
			live = append(live, struct {
				addr uint64
				size int
			}{addr, size})
		} else {
			j := r.Intn(len(live))
			o := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(o.addr, o.size, r.Intn(8))
		}
	}
	shares := a.Stats().Time.Shares()
	sum := 0.0
	for _, v := range shares {
		if v < 0 {
			t.Fatalf("negative share: %v", shares)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	// The front-end dominates malloc time (Fig. 6a: ~53%).
	if shares["CPUCache"] < 0.2 {
		t.Fatalf("CPUCache share %v implausibly low", shares["CPUCache"])
	}
}

func TestBackgroundReleaseShrinksHeap(t *testing.T) {
	cfg := BaselineConfig()
	cfg.ReleaseIntervalNs = 1000
	cfg.ReleaseBytesPerInterval = 64 << 20
	cfg.PageHeap.MaxHugeCacheBytes = 1 << 40 // let the cache hold everything
	a := newAlloc(cfg)
	var objs []uint64
	for i := 0; i < 2000; i++ {
		addr, _ := a.Malloc(64<<10, 0)
		objs = append(objs, addr)
	}
	for _, o := range objs {
		a.Free(o, 64<<10, 0)
	}
	a.DrainCaches()
	before := a.Stats().HeapBytes
	a.Tick(1)
	a.Tick(2000)
	after := a.Stats().HeapBytes
	if after >= before {
		t.Fatalf("background release did nothing: %d -> %d", before, after)
	}
}

func TestVCPUAssignmentDense(t *testing.T) {
	a := newAlloc(BaselineConfig())
	a.Malloc(64, 50)
	a.Malloc(64, 3)
	a.Malloc(64, 50)
	if a.VCPUs() != 2 {
		t.Fatalf("VCPUs = %d", a.VCPUs())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		a := newAlloc(OptimizedConfig())
		r := rng.New(42)
		var live []struct {
			addr uint64
			size int
		}
		for i := 0; i < 5000; i++ {
			a.Tick(int64(i) * 100000)
			if r.Bool(0.6) || len(live) == 0 {
				size := 8 + r.Intn(100000)
				addr, _ := a.Malloc(size, r.Intn(32))
				live = append(live, struct {
					addr uint64
					size int
				}{addr, size})
			} else {
				j := r.Intn(len(live))
				o := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				a.Free(o.addr, o.size, r.Intn(32))
			}
		}
		return a.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestWithFeatureToggles(t *testing.T) {
	// Each of the paper's four feature shorthands turns on its tier's
	// paper policy.
	for _, c := range []struct {
		name string
		on   func(Config) bool
	}{
		{"heterogeneous-percpu-cache", func(c Config) bool { return c.PerCPU.Policy == percpu.Hetero }},
		{"nuca-transfer-cache", func(c Config) bool { return c.Transfer.Policy == transfercache.NUCA }},
		{"span-prioritization", func(c Config) bool { return c.CFL.Policy == centralfreelist.FullestFirst }},
		{"lifetime-aware-filler", func(c Config) bool { return c.PageHeap.Filler == pageheap.FillerCapacity }},
	} {
		d, err := policy.Parse(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cfg, err := ConfigForDesign(d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.on(cfg) {
			t.Errorf("%s not enabled", c.name)
		}
		if c.on(BaselineConfig()) {
			t.Errorf("%s already on in the baseline", c.name)
		}
	}
}

func TestHugepageCoverageReported(t *testing.T) {
	a := newAlloc(BaselineConfig())
	for i := 0; i < 1000; i++ {
		a.Malloc(8192, 0)
	}
	if cov := a.Stats().HugepageCoverage; cov != 1.0 {
		t.Fatalf("coverage before any subrelease = %v", cov)
	}
}

func TestMmapChargedOnColdStart(t *testing.T) {
	a := newAlloc(BaselineConfig())
	_, cost := a.Malloc(64, 0)
	if cost < latMmap {
		t.Fatalf("cold-start alloc cost %v must include mmap", cost)
	}
	if a.Stats().Time.Mmap == 0 {
		t.Fatal("mmap time not recorded")
	}
}

func TestStatsConservationSmallOnly(t *testing.T) {
	a := newAlloc(BaselineConfig())
	addrs := make([]uint64, 0, 10000)
	for i := 0; i < 10000; i++ {
		addr, _ := a.Malloc(16, i%4)
		addrs = append(addrs, addr)
	}
	st := a.Stats()
	if st.LiveRoundedBytes != 10000*16 {
		t.Fatalf("rounded = %d", st.LiveRoundedBytes)
	}
	if got := st.HeapBytes; got != st.LiveRoundedBytes+st.ExternalFragBytes() {
		t.Fatalf("heap %d != rounded %d + frag %d", got, st.LiveRoundedBytes, st.ExternalFragBytes())
	}
	for _, addr := range addrs {
		a.Free(addr, 16, 0)
	}
}

func BenchmarkMallocFreeSmall(b *testing.B) {
	a := newAlloc(OptimizedConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, _ := a.Malloc(64, 0)
		a.Free(addr, 64, 0)
	}
}

func BenchmarkMallocFreeMixed(b *testing.B) {
	a := newAlloc(OptimizedConfig())
	r := rng.New(1)
	var live []struct {
		addr uint64
		size int
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Bool(0.5) || len(live) == 0 {
			size := 8 + r.Intn(8192)
			addr, _ := a.Malloc(size, i%16)
			live = append(live, struct {
				addr uint64
				size int
			}{addr, size})
		} else {
			j := r.Intn(len(live))
			o := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(o.addr, o.size, i%16)
		}
	}
}

func TestMallocHintedRoutesLargeAllocations(t *testing.T) {
	cfg := BaselineConfig()
	cfg.PageHeap.Filler = pageheap.FillerCapacity
	a := newAlloc(cfg)
	// Two sub-hugepage large allocations (direct pageheap path) with
	// opposite hints must not share a hugepage.
	long, _ := a.MallocHinted(300<<10, 0, false)
	short, _ := a.MallocHinted(300<<10, 0, true)
	if long>>21 == short>>21 {
		t.Fatal("hinted lifetimes share a hugepage")
	}
	a.Free(long, 300<<10, 0)
	a.Free(short, 300<<10, 0)
	if st := a.Stats(); st.Heap.UsedBytes != 0 {
		t.Fatal("not drained")
	}
}

func TestMallocHintedEquivalentWhenFillerUnaware(t *testing.T) {
	a := newAlloc(BaselineConfig())
	x, _ := a.MallocHinted(300<<10, 0, true)
	y, _ := a.Malloc(300<<10, 0)
	// Without the lifetime-aware filler, hints are ignored: both land in
	// the same (single) filler set.
	if x>>21 != y>>21 {
		t.Fatal("hint should be inert without the lifetime-aware filler")
	}
	a.Free(x, 300<<10, 0)
	a.Free(y, 300<<10, 0)
}
