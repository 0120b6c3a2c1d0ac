// Package percpu implements TCMalloc's front-end per-CPU caches (§2.1
// item 1, §4.1): per-virtual-CPU object stacks with a byte-capacity
// budget, indexed by the dense vCPU IDs the kernel's rseq extension
// provides. It supports the legacy statically-sized layout (3 MiB per
// vCPU) and the paper's heterogeneous design, where a background resizer
// periodically steals capacity from low-miss caches and grants it to the
// top-K highest-miss caches (Fig. 9b, Fig. 10).
package percpu

import (
	"fmt"

	"wsmalloc/internal/check"
	"wsmalloc/internal/telemetry"
)

// Backing is the middle tier (the transfer cache layer).
type Backing interface {
	// Alloc fills out with objects of a class for an LLC domain,
	// returning the count filled. A short fill is always accompanied by
	// the allocation error that caused it.
	Alloc(class, domain int, out []uint64) (int, error)
	// Free returns objects of a class freed by an LLC domain.
	Free(class, domain int, objs []uint64)
}

// Config controls the front-end.
type Config struct {
	// Policy is the capacity policy run every ResizeIntervalNs (§4.1).
	Policy Policy
	// CapacityBytes is the per-vCPU cache bound. The paper uses 3 MiB
	// for the static design and halves it to 1.5 MiB with dynamic
	// resizing enabled. Caches start at InitialCapacityBytes and grow
	// toward the bound on misses (TCMalloc's slow start), so idle vCPUs
	// never hold the full budget.
	CapacityBytes int64
	// InitialCapacityBytes is the starting per-vCPU capacity.
	InitialCapacityBytes int64
	// GrowStepBytes is how much a miss grows the capacity (up to the
	// CapacityBytes bound).
	GrowStepBytes int64
	// MinCapacityBytes bounds how far the resizer may shrink a cache.
	MinCapacityBytes int64
	// ResizeIntervalNs is the period of the background resizer. The
	// paper uses 5 s of wall time; simulation runs compress hours into
	// hundreds of milliseconds, so the default is 10 ms of virtual time.
	ResizeIntervalNs int64
	// StepBytes is the capacity moved per steal.
	StepBytes int64
	// PerClassBytesCap bounds how many bytes of one size class a single
	// vCPU cache may hold (TCMalloc bounds per-class capacity so one
	// class cannot monopolize the slab). Zero disables the cap.
	PerClassBytesCap int64
	// DecayIntervalNs is the period of the idle-class reclaim
	// (TCMalloc's per-CPU cache shuffle): a class slot with no activity
	// since the previous pass returns half its objects to the middle
	// tier, so stack bottoms do not pin spans forever. Zero disables.
	DecayIntervalNs int64
}

// topK is how many highest-miss caches grow per resize interval.
const topK = 5

// StaticConfig is the legacy front-end: fixed 3 MiB per vCPU.
func StaticConfig() Config {
	return Config{
		CapacityBytes:        3 << 20,
		InitialCapacityBytes: 256 << 10,
		GrowStepBytes:        64 << 10,
		MinCapacityBytes:     128 << 10,
		ResizeIntervalNs:     10e6,
		StepBytes:            256 << 10,
		PerClassBytesCap:     96 << 10,
		DecayIntervalNs:      20e6,
	}
}

// ConfigFor returns the front-end configuration for a capacity policy:
// the static layout keeps the legacy 3 MiB per vCPU, and the stealing
// policies halve the budget to 1.5 MiB (§4.1).
func ConfigFor(p Policy) Config {
	c := StaticConfig()
	c.Policy = p
	if p != Static {
		c.CapacityBytes = 3 << 19 // 1.5 MiB
	}
	return c
}

// cpuCache is the cache of one virtual CPU.
type cpuCache struct {
	slots    [][]uint64
	used     int64
	capacity int64
	// bound is the maximum capacity slow-start growth may reach.
	bound int64
	// domain caches domainOf(vcpu): the vCPU→physical mapping is fixed
	// once the vCPU is assigned, so the hot paths skip the closure call.
	domain int

	allocHits, allocMisses int64
	freeHits, freeMisses   int64
	missWindow             int64
	// missEWMA is the EWMA policy's smoothed per-window miss rate;
	// unused by the other policies.
	missEWMA float64

	// classOps and classOpsAtDecay drive idle-class reclaim.
	classOps        []int64
	classOpsAtDecay []int64
}

// Stats summarizes the front-end.
type Stats struct {
	// PopulatedCaches is the number of vCPU caches in use.
	PopulatedCaches int
	// CachedBytes is memory held across all per-CPU caches (front-end
	// external fragmentation, Fig. 6b).
	CachedBytes int64
	// CapacityBytes is the summed capacity of populated caches.
	CapacityBytes int64
	// AllocHits/AllocMisses count fast-path allocations vs underflows.
	AllocHits, AllocMisses int64
	// FreeHits/FreeMisses count fast-path frees vs overflow spills.
	FreeHits, FreeMisses int64
	// Resizes counts capacity-steal operations performed.
	Resizes int64
}

// Caches is the front-end layer across all vCPUs.
type Caches struct {
	cfg        Config
	numClasses int
	domainOf   func(vcpu int) int
	backing    Backing

	// sizes and batches are the per-class tables precomputed from the
	// wiring functions at construction, so the per-operation paths cost
	// an index load instead of a closure call.
	sizes   []int
	batches []int

	caches []*cpuCache

	// xferBuf is the scratch buffer for refills and spills. The backing
	// tiers copy object addresses out of (or into) the slice during the
	// call and retain nothing, so one buffer serves every miss.
	xferBuf []uint64

	lastResize  int64
	lastDecay   int64
	stealCursor int
	resizes     int64

	tel *telemetry.Sink
}

// SetTelemetry installs the telemetry sink (nil disables; every event
// call site then costs one branch).
func (c *Caches) SetTelemetry(s *telemetry.Sink) { c.tel = s }

// New creates the front-end. domainOf maps a vCPU to its LLC domain for
// middle-tier calls.
func New(cfg Config, numClasses int, objSize, batchSize func(int) int,
	domainOf func(int) int, backing Backing) *Caches {
	if cfg.CapacityBytes <= 0 {
		panic("percpu: non-positive capacity")
	}
	sizes := make([]int, numClasses)
	batches := make([]int, numClasses)
	for i := 0; i < numClasses; i++ {
		sizes[i] = objSize(i)
		batches[i] = batchSize(i)
	}
	return &Caches{
		cfg:        cfg,
		numClasses: numClasses,
		sizes:      sizes,
		batches:    batches,
		domainOf:   domainOf,
		backing:    backing,
	}
}

// Swap retunes the front-end to a new configuration mid-run: every
// populated cache is drained to the middle tier, the capacity policy and
// the construction-time-derived capacity state (slow-start bound,
// initial capacity, miss window) are re-derived from cfg, and the
// cumulative hit/miss counters carry over. The per-class size and batch
// tables derive from the wiring functions, not the config, so they
// survive unchanged. A Swap on a freshly constructed front-end is
// indistinguishable from construction with cfg.
func (c *Caches) Swap(cfg Config) {
	if cfg.CapacityBytes <= 0 {
		panic("percpu: non-positive capacity")
	}
	c.DrainAll()
	c.cfg = cfg
	initial := cfg.InitialCapacityBytes
	if initial <= 0 || initial > cfg.CapacityBytes {
		initial = cfg.CapacityBytes
	}
	for _, cc := range c.caches {
		if cc == nil {
			continue
		}
		// Restart slow start under the new budget. Resetting bound (not
		// just capacity) restores the conservation invariant the resizer
		// relies on: summed bound == populated caches × CapacityBytes.
		cc.capacity = initial
		cc.bound = cfg.CapacityBytes
		cc.missWindow = 0
		cc.missEWMA = 0
	}
}

func (c *Caches) cache(vcpu int) *cpuCache {
	if vcpu < len(c.caches) {
		if cc := c.caches[vcpu]; cc != nil {
			return cc
		}
	}
	return c.cacheSlow(vcpu)
}

func (c *Caches) cacheSlow(vcpu int) *cpuCache {
	for vcpu >= len(c.caches) {
		c.caches = append(c.caches, nil)
	}
	if c.caches[vcpu] == nil {
		initial := c.cfg.InitialCapacityBytes
		if initial <= 0 || initial > c.cfg.CapacityBytes {
			initial = c.cfg.CapacityBytes
		}
		c.caches[vcpu] = &cpuCache{
			slots:           make([][]uint64, c.numClasses),
			capacity:        initial,
			bound:           c.cfg.CapacityBytes,
			domain:          c.domainOf(vcpu),
			classOps:        make([]int64, c.numClasses),
			classOpsAtDecay: make([]int64, c.numClasses),
		}
	}
	return c.caches[vcpu]
}

// Alloc returns one object of the given class for a thread running on
// vcpu. hit reports whether the fast path (cache) served it. When the
// refill batch comes back short but non-empty, the request still
// succeeds (the shortfall only thins the cache); only a completely
// failed refill surfaces the middle tier's error.
func (c *Caches) Alloc(vcpu, class int) (addr uint64, hit bool, err error) {
	cc := c.cache(vcpu)
	cc.classOps[class]++
	if s := cc.slots[class]; len(s) > 0 {
		addr = s[len(s)-1]
		cc.slots[class] = s[:len(s)-1]
		cc.used -= int64(c.sizes[class])
		cc.allocHits++
		return addr, true, nil
	}
	// Underflow: refill a batch from the middle tier, growing the
	// capacity toward its bound (slow start).
	cc.allocMisses++
	cc.missWindow++
	c.tel.Event(telemetry.EvPerCPUMiss, int64(vcpu), int64(class))
	c.grow(cc)
	batch := c.batches[class]
	size := int64(c.sizes[class])
	// Keep the refill within the capacity budget and the per-class cap
	// (always at least one object).
	if room := (cc.capacity - cc.used) / size; room < int64(batch) {
		batch = int(room)
	}
	if cap := c.cfg.PerClassBytesCap; cap > 0 {
		if room := int(cap/size) - len(cc.slots[class]); room < batch {
			batch = room
		}
	}
	if batch < 1 {
		batch = 1
	}
	buf := c.scratch(batch)
	n, err := c.backing.Alloc(class, cc.domain, buf)
	if n == 0 {
		return 0, false, err
	}
	addr = buf[0]
	if n > 1 {
		cc.slots[class] = append(cc.slots[class], buf[1:n]...)
		cc.used += int64(n-1) * size
	}
	return addr, false, nil
}

// Free returns one object of the given class from a thread on vcpu. hit
// reports whether the cache absorbed it without spilling.
func (c *Caches) Free(vcpu, class int, addr uint64) (hit bool) {
	cc := c.cache(vcpu)
	cc.classOps[class]++
	size := int64(c.sizes[class])
	if cap := c.cfg.PerClassBytesCap; cap > 0 &&
		(int64(len(cc.slots[class]))+1)*size > cap {
		// Per-class cap reached: spill a batch of this class.
		cc.freeMisses++
		cc.missWindow++
		c.tel.Event(telemetry.EvPerCPUMiss, int64(vcpu), int64(class))
		c.spill(cc, vcpu, class, addr)
		return false
	}
	if cc.used+size > cc.capacity {
		// Overflow: grow toward the bound; if the object still does not
		// fit, spill a batch of this class (including addr).
		cc.freeMisses++
		cc.missWindow++
		c.tel.Event(telemetry.EvPerCPUMiss, int64(vcpu), int64(class))
		c.grow(cc)
		if cc.used+size > cc.capacity {
			c.spill(cc, vcpu, class, addr)
			return false
		}
		cc.slots[class] = append(cc.slots[class], addr)
		cc.used += size
		return false
	}
	cc.slots[class] = append(cc.slots[class], addr)
	cc.used += size
	cc.freeHits++
	return true
}

// scratch returns the shared transfer buffer grown to n slots. Callers
// must finish with the slice before the next scratch call; the backing
// tiers never retain it.
func (c *Caches) scratch(n int) []uint64 {
	if cap(c.xferBuf) < n {
		c.xferBuf = make([]uint64, n)
	}
	return c.xferBuf[:n]
}

// spill pushes addr plus up to batch-1 cached objects of class to the
// middle tier.
func (c *Caches) spill(cc *cpuCache, vcpu, class int, addr uint64) {
	batch := c.batches[class]
	s := cc.slots[class]
	take := batch - 1
	if take > len(s) {
		take = len(s)
	}
	objs := c.scratch(take + 1)
	objs[0] = addr
	copy(objs[1:], s[len(s)-take:])
	cc.slots[class] = s[:len(s)-take]
	cc.used -= int64(take) * int64(c.sizes[class])
	c.backing.Free(class, cc.domain, objs)
}

// grow raises a cache's capacity by one slow-start step, capped at the
// bound.
func (c *Caches) grow(cc *cpuCache) {
	if c.cfg.GrowStepBytes <= 0 || cc.capacity >= cc.bound {
		return
	}
	cc.capacity += c.cfg.GrowStepBytes
	if cc.capacity > cc.bound {
		cc.capacity = cc.bound
	}
}

// MaybeDecay runs the idle-class reclaim if the interval elapsed: every
// (vcpu, class) slot untouched since the previous pass returns half its
// objects to the middle tier. Returns the number of objects released.
func (c *Caches) MaybeDecay(now int64) int {
	if c.cfg.DecayIntervalNs <= 0 || now-c.lastDecay < c.cfg.DecayIntervalNs {
		return 0
	}
	c.lastDecay = now
	released := 0
	for vcpu, cc := range c.caches {
		if cc == nil {
			continue
		}
		for class := 0; class < c.numClasses; class++ {
			idle := cc.classOps[class] == cc.classOpsAtDecay[class]
			cc.classOpsAtDecay[class] = cc.classOps[class]
			if !idle || len(cc.slots[class]) == 0 {
				continue
			}
			s := cc.slots[class]
			drop := (len(s) + 1) / 2
			objs := c.scratch(drop)
			copy(objs, s[len(s)-drop:])
			cc.slots[class] = s[:len(s)-drop]
			cc.used -= int64(drop) * int64(c.sizes[class])
			c.tel.Event(telemetry.EvPerCPUDecay, int64(vcpu), int64(drop))
			c.backing.Free(class, cc.domain, objs)
			released += drop
		}
	}
	return released
}

// MaybeResize runs the configured capacity policy if the interval
// elapsed. now is simulation time in nanoseconds. Returns whether a
// resize pass ran; statically-sized front-ends never run one.
func (c *Caches) MaybeResize(now int64) bool {
	if c.cfg.Policy == Static || now-c.lastResize < c.cfg.ResizeIntervalNs {
		return false
	}
	c.lastResize = now
	c.resize()
	return true
}

// evictToCapacity sheds objects (largest size classes first, since most
// allocations are small, §4.1) until the cache fits its capacity.
func (c *Caches) evictToCapacity(cc *cpuCache, vcpu int) {
	for class := c.numClasses - 1; class >= 0 && cc.used > cc.capacity; class-- {
		size := int64(c.sizes[class])
		for len(cc.slots[class]) > 0 && cc.used > cc.capacity {
			batch := c.batches[class]
			s := cc.slots[class]
			if batch > len(s) {
				batch = len(s)
			}
			objs := c.scratch(batch)
			copy(objs, s[len(s)-batch:])
			cc.slots[class] = s[:len(s)-batch]
			cc.used -= int64(batch) * size
			c.backing.Free(class, cc.domain, objs)
		}
	}
}

// Drain evicts every object of a vCPU cache back to the middle tier
// (e.g. when the control plane deschedules the application from a CPU).
func (c *Caches) Drain(vcpu int) {
	if vcpu >= len(c.caches) || c.caches[vcpu] == nil {
		return
	}
	cc := c.caches[vcpu]
	for class := 0; class < c.numClasses; class++ {
		if len(cc.slots[class]) == 0 {
			continue
		}
		c.backing.Free(class, cc.domain, cc.slots[class])
		cc.used -= int64(len(cc.slots[class])) * int64(c.sizes[class])
		cc.slots[class] = nil
	}
	if cc.used != 0 {
		panic(fmt.Sprintf("percpu: drain accounting mismatch: %d bytes", cc.used))
	}
}

// DrainAll drains every populated cache.
func (c *Caches) DrainAll() {
	for v := range c.caches {
		c.Drain(v)
	}
}

// MissCounts returns total (alloc+free) misses per vCPU — Fig. 9b's
// disparity metric.
func (c *Caches) MissCounts() []int64 {
	out := make([]int64, len(c.caches))
	for i, cc := range c.caches {
		if cc != nil {
			out[i] = cc.allocMisses + cc.freeMisses
		}
	}
	return out
}

// CachedBytesByClass returns the bytes cached per size class, summed
// across every populated vCPU cache — the front-end column of the
// per-class fragmentation table in the pageheapz report.
func (c *Caches) CachedBytesByClass() []int64 {
	out := make([]int64, c.numClasses)
	for _, cc := range c.caches {
		if cc == nil {
			continue
		}
		for class, s := range cc.slots {
			out[class] += int64(len(s)) * int64(c.sizes[class])
		}
	}
	return out
}

// Capacities returns the current capacity of each populated vCPU cache.
func (c *Caches) Capacities() []int64 {
	out := make([]int64, len(c.caches))
	for i, cc := range c.caches {
		if cc != nil {
			out[i] = cc.capacity
		}
	}
	return out
}

// CheckInvariants audits the front-end: each populated cache's used-byte
// counter against a recount of its slots, usage within capacity, and
// capacity within the cache's slow-start bound. The heterogeneous
// resizer (§4.1) relocates bound together with capacity, so per-cache
// capacity ≤ bound holds in both designs and the summed bound is
// conserved at one configured budget per populated vCPU — capacity can
// move, never be created.
func (c *Caches) CheckInvariants() []check.Violation {
	var vs []check.Violation
	var boundTotal, populated int64
	for vcpu, cc := range c.caches {
		if cc == nil {
			continue
		}
		var recount int64
		for class := 0; class < c.numClasses; class++ {
			recount += int64(len(cc.slots[class])) * int64(c.sizes[class])
		}
		if recount != cc.used {
			vs = append(vs, check.Violationf("percpu", check.KindAccounting,
				"vcpu %d used-byte counter %d disagrees with slot recount %d",
				vcpu, cc.used, recount))
		}
		if cc.used > cc.capacity {
			vs = append(vs, check.Violationf("percpu", check.KindStructure,
				"vcpu %d cache holds %d bytes above its %d-byte capacity",
				vcpu, cc.used, cc.capacity))
		}
		if cc.capacity > cc.bound {
			vs = append(vs, check.Violationf("percpu", check.KindStructure,
				"vcpu %d capacity %d exceeds its bound %d", vcpu, cc.capacity, cc.bound))
		}
		boundTotal += cc.bound
		populated++
	}
	if want := populated * c.cfg.CapacityBytes; boundTotal != want {
		vs = append(vs, check.Violationf("percpu", check.KindConservation,
			"summed capacity bound %d differs from the configured budget %d (%d caches x %d)",
			boundTotal, want, populated, c.cfg.CapacityBytes))
	}
	return vs
}

// CorruptUsedForTest skews the used-byte counter of one vCPU cache. It
// exists solely so the corruption self-test can prove the auditor
// detects front-end accounting drift; production code never calls it.
func (c *Caches) CorruptUsedForTest(vcpu int, delta int64) {
	c.cache(vcpu).used += delta
}

// Stats returns a snapshot.
func (c *Caches) Stats() Stats {
	var s Stats
	s.Resizes = c.resizes
	for _, cc := range c.caches {
		if cc == nil {
			continue
		}
		s.PopulatedCaches++
		s.CachedBytes += cc.used
		s.CapacityBytes += cc.capacity
		s.AllocHits += cc.allocHits
		s.AllocMisses += cc.allocMisses
		s.FreeHits += cc.freeHits
		s.FreeMisses += cc.freeMisses
	}
	return s
}
