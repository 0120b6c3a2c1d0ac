package percpu

import (
	"testing"
)

// fakeBacking hands out sequential addresses and records traffic.
type fakeBacking struct {
	next    uint64
	outflow int64 // objects handed out
	inflow  int64 // objects returned
}

func (f *fakeBacking) Alloc(class, domain int, out []uint64) (int, error) {
	for i := range out {
		out[i] = f.next
		f.next++
	}
	f.outflow += int64(len(out))
	return len(out), nil
}

func (f *fakeBacking) Free(class, domain int, objs []uint64) {
	f.inflow += int64(len(objs))
}

const testClasses = 4

func sizes(class int) int   { return 64 << uint(class) } // 64,128,256,512
func batches(class int) int { return 8 }
func domain0(int) int       { return 0 }

func newCaches(cfg Config) (*Caches, *fakeBacking) {
	b := &fakeBacking{}
	return New(cfg, testClasses, sizes, batches, domain0, b), b
}

func TestAllocMissThenHits(t *testing.T) {
	c, b := newCaches(StaticConfig())
	a1, hit, _ := c.Alloc(0, 1)
	if hit {
		t.Fatal("first alloc cannot hit")
	}
	if b.outflow != 8 {
		t.Fatalf("refill fetched %d objects, want batch of 8", b.outflow)
	}
	for i := 0; i < 7; i++ {
		_, hit, _ := c.Alloc(0, 1)
		if !hit {
			t.Fatalf("alloc %d should hit the refilled cache", i)
		}
	}
	_, hit, _ = c.Alloc(0, 1)
	if hit {
		t.Fatal("ninth alloc should miss again")
	}
	_ = a1
	st := c.Stats()
	if st.AllocHits != 7 || st.AllocMisses != 2 {
		t.Fatalf("hits=%d misses=%d", st.AllocHits, st.AllocMisses)
	}
}

func TestFreeHitAndOverflow(t *testing.T) {
	cfg := StaticConfig()
	cfg.CapacityBytes = 64 * 10 // room for 10 class-0 objects
	c, b := newCaches(cfg)
	for i := 0; i < 10; i++ {
		if !c.Free(0, 0, uint64(1000+i)) {
			t.Fatalf("free %d should be absorbed", i)
		}
	}
	if c.Free(0, 0, 2000) {
		t.Fatal("free into full cache should spill")
	}
	// The spill pushes a batch (8): the new object plus 7 cached ones.
	if b.inflow != 8 {
		t.Fatalf("spill pushed %d objects, want 8", b.inflow)
	}
	st := c.Stats()
	if st.FreeMisses != 1 || st.FreeHits != 10 {
		t.Fatalf("freeHits=%d freeMisses=%d", st.FreeHits, st.FreeMisses)
	}
	if st.CachedBytes != 64*3 {
		t.Fatalf("CachedBytes = %d", st.CachedBytes)
	}
}

func TestLIFOReuse(t *testing.T) {
	c, _ := newCaches(StaticConfig())
	c.Free(0, 0, 42)
	addr, hit, _ := c.Alloc(0, 0)
	if !hit || addr != 42 {
		t.Fatalf("expected LIFO reuse of 42, got %d hit=%v", addr, hit)
	}
}

func TestCachesAreIndependentPerVCPU(t *testing.T) {
	c, _ := newCaches(StaticConfig())
	c.Free(3, 0, 42)
	if _, hit, _ := c.Alloc(1, 0); hit {
		t.Fatal("vCPU 1 must not see vCPU 3's objects")
	}
	if st := c.Stats(); st.PopulatedCaches != 2 {
		t.Fatalf("PopulatedCaches = %d", st.PopulatedCaches)
	}
}

func TestRefillRespectsCapacity(t *testing.T) {
	cfg := StaticConfig()
	cfg.CapacityBytes = 64 * 3 // room for only 3 class-0 objects
	c, b := newCaches(cfg)
	_, _, _ = c.Alloc(0, 0)
	// Batch is 8 but capacity is 3: fetch 1 returned + at most 2 cached.
	if b.outflow > 3 {
		t.Fatalf("refill fetched %d objects beyond capacity", b.outflow)
	}
	st := c.Stats()
	if st.CachedBytes > cfg.CapacityBytes {
		t.Fatalf("cache exceeds capacity: %d > %d", st.CachedBytes, cfg.CapacityBytes)
	}
}

func TestDrainReturnsEverything(t *testing.T) {
	c, b := newCaches(StaticConfig())
	for i := 0; i < 20; i++ {
		c.Free(0, i%3, uint64(5000+i))
	}
	c.DrainAll()
	if b.inflow != 20 {
		t.Fatalf("drain returned %d objects, want 20", b.inflow)
	}
	if st := c.Stats(); st.CachedBytes != 0 {
		t.Fatalf("CachedBytes after drain = %d", st.CachedBytes)
	}
}

func TestStaticNeverResizes(t *testing.T) {
	c, _ := newCaches(StaticConfig())
	c.Alloc(0, 0)
	c.Alloc(1, 0)
	if c.MaybeResize(10e9) {
		t.Fatal("static config must not resize")
	}
}

func TestHeterogeneousResizeMovesCapacity(t *testing.T) {
	cfg := ConfigFor(Hetero)
	cfg.ResizeIntervalNs = 1
	c, _ := newCaches(cfg)
	// vCPU 0 misses a lot; vCPUs 1-8 are idle but populated (more than
	// topK, so the resizer has victims to steal from).
	for v := 0; v < 9; v++ {
		c.Alloc(v, 0)
	}
	for i := 0; i < 50; i++ {
		c.Alloc(0, 3) // large class: each refill misses capacity quickly
		c.Alloc(0, 2)
	}
	before := c.Capacities()
	if !c.MaybeResize(100) {
		t.Fatal("resize pass should run")
	}
	after := c.Capacities()
	if after[0] <= before[0] {
		t.Fatalf("high-miss vCPU 0 capacity %d -> %d, want growth", before[0], after[0])
	}
	shrunk := false
	for v := 1; v < 9; v++ {
		if after[v] < before[v] {
			shrunk = true
		}
	}
	if !shrunk {
		t.Fatal("no idle cache was shrunk")
	}
	// Total capacity is conserved.
	var sumB, sumA int64
	for i := range before {
		sumB += before[i]
		sumA += after[i]
	}
	if sumB != sumA {
		t.Fatalf("capacity not conserved: %d -> %d", sumB, sumA)
	}
}

func TestResizeRespectsMinCapacity(t *testing.T) {
	cfg := ConfigFor(Hetero)
	cfg.ResizeIntervalNs = 1
	cfg.StepBytes = 10 << 20 // try to steal far more than available
	c, _ := newCaches(cfg)
	for v := 0; v < 9; v++ {
		c.Alloc(v, 0)
	}
	for i := 0; i < 50; i++ {
		c.Alloc(0, 3)
	}
	c.MaybeResize(100)
	for v, cap := range c.Capacities() {
		if cap < cfg.MinCapacityBytes {
			t.Fatalf("vCPU %d capacity %d below floor %d", v, cap, cfg.MinCapacityBytes)
		}
	}
}

func TestResizeEvictsOverflow(t *testing.T) {
	cfg := ConfigFor(Hetero)
	cfg.ResizeIntervalNs = 1
	cfg.CapacityBytes = 64 * 64 // 4 KiB
	cfg.MinCapacityBytes = 64 * 4
	cfg.StepBytes = 64 * 32
	c, b := newCaches(cfg)
	// Fill vCPU 1's cache to capacity with class-0 objects.
	for i := 0; i < 64; i++ {
		c.Free(1, 0, uint64(9000+i))
	}
	// vCPU 0 misses, stealing from vCPU 1.
	for i := 0; i < 20; i++ {
		c.Alloc(0, 3)
	}
	inflowBefore := b.inflow
	c.MaybeResize(100)
	if b.inflow <= inflowBefore {
		t.Fatal("shrinking a full cache must evict objects")
	}
	st := c.Stats()
	if st.CachedBytes > st.CapacityBytes {
		t.Fatalf("cached %d exceeds capacity %d after resize", st.CachedBytes, st.CapacityBytes)
	}
}

func TestMissCountsDisparity(t *testing.T) {
	c, _ := newCaches(StaticConfig())
	// vCPU 0 does lots of work, vCPU 5 a little (Fig. 9b shape).
	for i := 0; i < 100; i++ {
		a, _, _ := c.Alloc(0, 0)
		c.Free(0, 0, a)
		_, _, _ = c.Alloc(0, 3)
	}
	c.Alloc(5, 0)
	misses := c.MissCounts()
	if misses[0] <= misses[5] {
		t.Fatalf("miss disparity missing: %v", misses)
	}
}

func TestHeterogeneousReducesFootprintUnderSkew(t *testing.T) {
	// The Fig. 10 effect in miniature: a hot vCPU that fills its cache to
	// the bound holds half the memory under the heterogeneous layout
	// (1.5 MiB bound) than under the static one (3 MiB), while idle
	// vCPUs stay at their slow-start size in both.
	workload := func(c *Caches) {
		for v := 1; v < 8; v++ { // populate idle vCPUs
			a, _, _ := c.Alloc(v, 0)
			c.Free(v, 0, a)
		}
		// vCPU 0 frees far more class-3 (512 B) objects than any bound
		// can hold, growing its capacity to the limit.
		for i := 0; i < 20000; i++ {
			c.Free(0, 3, uint64(100000+i))
		}
		c.MaybeResize(6e9)
	}
	scfg := StaticConfig()
	scfg.PerClassBytesCap = 0 // exercise the whole-cache bound
	hcfg := ConfigFor(Hetero)
	hcfg.PerClassBytesCap = 0
	stat, _ := newCaches(scfg)
	workload(stat)
	het, _ := newCaches(hcfg)
	workload(het)
	ss, hs := stat.Stats(), het.Stats()
	if hs.CachedBytes >= ss.CachedBytes {
		t.Fatalf("heterogeneous cached bytes %d should undercut static %d",
			hs.CachedBytes, ss.CachedBytes)
	}
}

func TestPerClassCapSpills(t *testing.T) {
	cfg := StaticConfig()
	cfg.PerClassBytesCap = 64 * 4 // 4 class-0 objects
	c, b := newCaches(cfg)
	for i := 0; i < 4; i++ {
		if !c.Free(0, 0, uint64(100+i)) {
			t.Fatalf("free %d should be absorbed", i)
		}
	}
	if c.Free(0, 0, 999) {
		t.Fatal("free beyond per-class cap must spill")
	}
	if b.inflow == 0 {
		t.Fatal("spill never reached backing")
	}
}

func TestSlowStartGrowth(t *testing.T) {
	cfg := StaticConfig()
	cfg.InitialCapacityBytes = 1 << 10
	cfg.GrowStepBytes = 1 << 10
	cfg.CapacityBytes = 4 << 10
	c, _ := newCaches(cfg)
	caps := func() int64 { return c.Capacities()[0] }
	c.Alloc(0, 0)
	first := caps()
	if first != 2<<10 { // initial 1K + one miss growth
		t.Fatalf("capacity after first miss = %d", first)
	}
	// Keep missing class 3 (512B, batch 8 = 4KiB > capacity): grows to
	// the bound and stops.
	for i := 0; i < 10; i++ {
		c.Alloc(0, 3)
	}
	if caps() != cfg.CapacityBytes {
		t.Fatalf("capacity should cap at bound: %d", caps())
	}
}

func TestMaybeDecayReclaimsIdleClasses(t *testing.T) {
	cfg := StaticConfig()
	cfg.DecayIntervalNs = 100
	c, b := newCaches(cfg)
	for i := 0; i < 8; i++ {
		c.Free(0, 0, uint64(500+i))
	}
	// First pass observes activity; nothing moves.
	if got := c.MaybeDecay(100); got != 0 {
		t.Fatalf("first decay moved %d", got)
	}
	// Second pass: idle since last -> half released.
	if got := c.MaybeDecay(200); got != 4 {
		t.Fatalf("second decay moved %d, want 4", got)
	}
	if b.inflow != 4 {
		t.Fatalf("backing received %d", b.inflow)
	}
	// Activity resets idleness.
	c.Free(0, 0, 999)
	if got := c.MaybeDecay(300); got != 0 {
		t.Fatalf("active class decayed %d", got)
	}
	// Fourth pass: idle again -> half of remaining 5.
	if got := c.MaybeDecay(400); got != 3 {
		t.Fatalf("fourth decay moved %d, want 3", got)
	}
}

func TestDecayDisabled(t *testing.T) {
	cfg := StaticConfig()
	cfg.DecayIntervalNs = 0
	c, _ := newCaches(cfg)
	c.Free(0, 0, 1)
	if c.MaybeDecay(1e12) != 0 {
		t.Fatal("disabled decay ran")
	}
}
