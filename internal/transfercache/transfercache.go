// Package transfercache implements TCMalloc's middle-tier transfer cache
// (§2.1 item 2, §4.2): flat arrays of free objects that let memory flow
// rapidly between per-CPU caches. It provides both the legacy centralized
// cache and the paper's NUCA-aware redesign, where each last-level-cache
// domain gets its own transfer cache backed by the legacy one, so objects
// freed by a core are preferentially re-allocated within the same LLC
// domain (Table 1).
//
// Every cached object remembers which LLC domain freed it, which lets the
// allocator price each reuse as an intra- or inter-domain cache-to-cache
// transfer — the quantity behind the paper's Fig. 11 measurement and the
// LLC miss-rate improvements in Table 1.
package transfercache

import (
	"fmt"

	"wsmalloc/internal/check"
	"wsmalloc/internal/telemetry"
)

// Backing is the next tier down (the central free lists).
type Backing interface {
	// AllocBatch fills out with objects of the given size class,
	// returning the count filled. A short fill is always accompanied by
	// the allocation error that caused it.
	AllocBatch(class int, out []uint64) (int, error)
	// FreeBatch returns objects of the given size class.
	FreeBatch(class int, objs []uint64)
}

// Config controls the transfer cache layer.
type Config struct {
	// Policy is the routing policy (§4.2).
	Policy Policy
	// NumDomains is the number of LLC domains with active caches; only
	// meaningful when the policy uses domains.
	NumDomains int
	// LegacyObjectsPerClass caps the centralized cache per size class.
	LegacyObjectsPerClass int
	// LegacyBytesPerClass additionally caps each class by bytes, so
	// large size classes cannot strand megabytes in the middle tier
	// (the object cap alone would let a 256 KiB class park hundreds of
	// MiB).
	LegacyBytesPerClass int64
}

// domainObjectsPerClass and domainBytesPerClass cap each per-domain
// cache per size class, by objects and by bytes, as the legacy caps do
// for the centralized cache.
const (
	domainObjectsPerClass = 256
	domainBytesPerClass   = 128 << 10
)

// DefaultConfig returns the legacy (centralized-only) configuration.
func DefaultConfig() Config {
	return Config{
		LegacyObjectsPerClass: 1024,
		LegacyBytesPerClass:   512 << 10,
	}
}

// NUCAConfig returns a NUCA-aware configuration for n domains.
func NUCAConfig(n int) Config {
	c := DefaultConfig()
	c.Policy = NUCA
	c.NumDomains = n
	return c
}

// entry is one cached object plus the LLC domain whose core freed it.
// Objects sourced from the central free list carry domain = coldDomain.
type entry struct {
	addr   uint64
	domain int16
}

const coldDomain = -1

// cache is one flat-array object cache for one size class.
type cache struct {
	entries []entry
	max     int
	hits    int64
	misses  int64
	// opsAtLastPlunder supports idle detection.
	opsAtLastPlunder int64
	ops              int64
}

func (c *cache) len() int { return len(c.entries) }

// Stats aggregates transfer cache telemetry.
type Stats struct {
	// Hits and Misses count allocation requests served/not served by
	// this layer (legacy and domain caches combined).
	Hits, Misses int64
	// DomainHits counts allocations served by a NUCA domain cache.
	DomainHits int64
	// LegacyHits counts allocations served by the centralized cache.
	LegacyHits int64
	// IntraDomain / InterDomain / Cold classify every object handed out:
	// freed by the same LLC domain, freed by a different domain, or
	// fetched cold from the central free list.
	IntraDomain, InterDomain, Cold int64
	// Overflows counts objects pushed through to the backing tier
	// because every cache level was full.
	Overflows int64
	// CachedObjects is the current object count across all caches.
	CachedObjects int64
	// CachedBytes is the memory held by this layer.
	CachedBytes int64
	// Plundered counts objects moved out of idle domain caches.
	Plundered int64
}

// Policy is the middle-tier routing policy: which domain cache (if any)
// an allocation consults before the legacy cache, and where a free lands
// before spilling to the legacy cache and the backing tier.
type Policy uint8

const (
	// Central is the legacy layout: one shared transfer cache, no
	// per-domain caches.
	Central Policy = iota
	// NUCA is the paper's §4.2 policy: each LLC domain gets its own
	// cache, consulted first on both allocation and free, with the
	// legacy cache as the shared fallback.
	NUCA
	// Pressure routes like NUCA, but frees that overflow their home
	// domain spill into the least-full sibling domain cache (for that
	// size class) before falling back to the shared legacy cache. Under
	// an imbalanced producer/consumer split this keeps objects in *some*
	// domain cache — one cross-domain transfer still beats a cold DRAM
	// fetch — at the cost of more inter-domain reuse.
	Pressure
)

// UsesDomains reports whether per-domain caches exist at all; when
// false the layer builds only the centralized legacy cache.
func (p Policy) UsesDomains() bool { return p != Central }

// TransferCaches is the full middle-tier cache layer for all size classes.
type TransferCaches struct {
	cfg        Config
	numClasses int
	backing    Backing

	// sizes is the per-class object size table precomputed from the
	// wiring function at construction (byte accounting without closure
	// calls).
	sizes []int

	legacy []cache
	// domains[d][class]
	domains [][]cache

	stats Stats

	tel *telemetry.Sink
}

// SetTelemetry installs the telemetry sink (nil disables).
func (t *TransferCaches) SetTelemetry(s *telemetry.Sink) { t.tel = s }

// New creates the layer. objSize maps a class index to its object size
// (for byte accounting).
func New(cfg Config, numClasses int, objSize func(int) int, backing Backing) *TransferCaches {
	if cfg.Policy.UsesDomains() && cfg.NumDomains <= 0 {
		panic(fmt.Sprintf("transfercache: domain-aware placement with %d domains", cfg.NumDomains))
	}
	sizes := make([]int, numClasses)
	for i := 0; i < numClasses; i++ {
		sizes[i] = objSize(i)
	}
	t := &TransferCaches{
		cfg:        cfg,
		numClasses: numClasses,
		sizes:      sizes,
		backing:    backing,
		legacy:     make([]cache, numClasses),
	}
	for i := range t.legacy {
		t.legacy[i].max = t.capFor(cfg.LegacyObjectsPerClass, cfg.LegacyBytesPerClass, i)
	}
	if cfg.Policy.UsesDomains() {
		t.domains = buildDomains(t, cfg)
	}
	return t
}

// capFor folds a class's object and byte caps into one entry bound.
func (t *TransferCaches) capFor(objects int, bytes int64, class int) int {
	max := objects
	if bytes > 0 {
		if byObj := int(bytes / int64(t.sizes[class])); byObj < max {
			max = byObj
		}
	}
	if max < 1 {
		max = 1
	}
	return max
}

// buildDomains constructs the per-domain cache matrix for cfg.
func buildDomains(t *TransferCaches, cfg Config) [][]cache {
	domains := make([][]cache, cfg.NumDomains)
	for d := range domains {
		domains[d] = make([]cache, t.numClasses)
		for i := range domains[d] {
			domains[d][i].max = t.capFor(domainObjectsPerClass, domainBytesPerClass, i)
		}
	}
	return domains
}

// Swap retunes the middle tier to a new configuration mid-run: every
// cached object is drained to the backing tier, the routing policy is
// replaced, the per-class entry bounds are recomputed, and the domain
// cache matrix is rebuilt for the new policy's geometry (or torn down
// when the new policy is centralized). The aggregate stats and the legacy caches' per-class
// counters carry over. A Swap on a freshly constructed layer is
// indistinguishable from construction with cfg.
func (t *TransferCaches) Swap(cfg Config) {
	if cfg.Policy.UsesDomains() && cfg.NumDomains <= 0 {
		panic(fmt.Sprintf("transfercache: domain-aware placement with %d domains", cfg.NumDomains))
	}
	t.Drain()
	t.cfg = cfg
	for i := range t.legacy {
		t.legacy[i].max = t.capFor(cfg.LegacyObjectsPerClass, cfg.LegacyBytesPerClass, i)
	}
	if cfg.Policy.UsesDomains() {
		t.domains = buildDomains(t, cfg)
	} else {
		t.domains = nil
	}
}

// homeDomain returns the domain cache an allocation or free from the
// given LLC domain tries first, or -1 for none.
func (t *TransferCaches) homeDomain(domain int) int {
	if t.cfg.Policy == Central {
		return -1
	}
	return domain
}

// freeOverflow returns a second domain cache to absorb objects that did
// not fit in the home domain cache, or -1 to spill straight to the legacy
// cache. Only the Pressure policy has one: the sibling domain whose
// cache for this class has the most free room (ties to the lowest
// domain index, deterministically), or -1 when every sibling is full.
func (t *TransferCaches) freeOverflow(class, domain int) int {
	if t.cfg.Policy != Pressure {
		return -1
	}
	best, bestRoom := -1, 0
	for d := range t.domains {
		if d == domain {
			continue
		}
		c := &t.domains[d][class]
		if room := c.max - len(c.entries); room > bestRoom {
			best, bestRoom = d, room
		}
	}
	return best
}

// Alloc fills out with objects of the given class for a request issued
// from the given LLC domain. It tries the domain cache, then the legacy
// cache, then the backing tier, and records the transfer classification
// of every object handed out. It returns the count filled; a short fill
// is always accompanied by the backing tier's allocation error, and the
// objects already in out remain valid.
func (t *TransferCaches) Alloc(class, domain int, out []uint64) (int, error) {
	filled := 0
	if d := t.homeDomain(domain); d >= 0 {
		dc := &t.domains[t.domainIndex(d)][class]
		filled += t.take(dc, domain, out[filled:])
		if filled > 0 {
			dc.hits++
			t.stats.DomainHits++
			t.tel.Event(telemetry.EvTransferHit, int64(domain), int64(class))
		}
	}
	if filled < len(out) {
		lc := &t.legacy[class]
		n := t.take(lc, domain, out[filled:])
		if n > 0 {
			lc.hits++
			t.stats.LegacyHits++
			if len(t.domains) > 0 {
				t.tel.Event(telemetry.EvTransferLegacyFallback, int64(domain), int64(class))
			} else {
				t.tel.Event(telemetry.EvTransferHit, int64(domain), int64(class))
			}
		}
		filled += n
	}
	if filled < len(out) {
		// Miss: fetch cold objects from the central free list.
		t.stats.Misses++
		t.tel.Event(telemetry.EvTransferMiss, int64(domain), int64(class))
		n, err := t.backing.AllocBatch(class, out[filled:])
		t.stats.Cold += int64(n)
		filled += n
		if err != nil {
			return filled, err
		}
	} else {
		t.stats.Hits++
	}
	if filled != len(out) {
		panic("transfercache: backing tier under-filled a batch without reporting an error")
	}
	return filled, nil
}

// take pops up to len(out) objects from c, classifying their provenance
// against the requesting domain.
func (t *TransferCaches) take(c *cache, domain int, out []uint64) int {
	c.ops++
	n := len(c.entries)
	want := len(out)
	if want > n {
		want = n
	}
	for i := 0; i < want; i++ {
		e := c.entries[n-1-i]
		out[i] = e.addr
		switch {
		case e.domain == coldDomain:
			t.stats.Cold++
		case int(e.domain) == domain:
			t.stats.IntraDomain++
		default:
			t.stats.InterDomain++
		}
	}
	c.entries = c.entries[:n-want]
	return want
}

// Free returns objects of the given class freed by the given LLC domain.
// Objects go to the domain cache first, overflow to the legacy cache, and
// spill to the backing tier when both are full.
func (t *TransferCaches) Free(class, domain int, objs []uint64) {
	rest := objs
	if d := t.homeDomain(domain); d >= 0 {
		dc := &t.domains[t.domainIndex(d)][class]
		rest = t.put(dc, domain, rest)
		if len(rest) > 0 {
			if d2 := t.freeOverflow(class, domain); d2 >= 0 {
				rest = t.put(&t.domains[t.domainIndex(d2)][class], domain, rest)
			}
		}
	}
	if len(rest) > 0 {
		rest = t.put(&t.legacy[class], domain, rest)
	}
	if len(rest) > 0 {
		t.stats.Overflows += int64(len(rest))
		t.tel.EventAdd(telemetry.EvTransferOverflow, int64(len(rest)), int64(class), int64(len(rest)))
		t.backing.FreeBatch(class, rest)
	}
}

// put pushes as many objects as fit, returning the overflow.
func (t *TransferCaches) put(c *cache, domain int, objs []uint64) []uint64 {
	c.ops++
	room := c.max - len(c.entries)
	n := len(objs)
	if n > room {
		n = room
	}
	for _, a := range objs[:n] {
		c.entries = append(c.entries, entry{addr: a, domain: int16(domain)})
	}
	return objs[n:]
}

func (t *TransferCaches) domainIndex(domain int) int {
	if domain < 0 || domain >= len(t.domains) {
		panic(fmt.Sprintf("transfercache: domain %d outside [0,%d)", domain, len(t.domains)))
	}
	return domain
}

// Plunder moves every object out of domain caches that saw no activity
// since the previous Plunder call into the legacy cache (overflowing to
// the backing tier), preventing memory from stranding in idle domains
// (§4.2). Idle legacy classes are likewise returned to the central free
// lists (TCMalloc sizes its transfer caches dynamically and shrinks the
// unused ones). It returns the number of objects moved.
func (t *TransferCaches) Plunder() int64 {
	var moved int64
	for class := range t.legacy {
		lc := &t.legacy[class]
		if lc.ops != lc.opsAtLastPlunder || lc.len() == 0 {
			lc.opsAtLastPlunder = lc.ops
			continue
		}
		objs := make([]uint64, len(lc.entries))
		for i, e := range lc.entries {
			objs[i] = e.addr
		}
		lc.entries = lc.entries[:0]
		lc.opsAtLastPlunder = lc.ops
		t.backing.FreeBatch(class, objs)
		moved += int64(len(objs))
	}
	if len(t.domains) == 0 {
		t.stats.Plundered += moved
		if moved > 0 {
			t.tel.EventAdd(telemetry.EvTransferPlunder, moved, moved, 0)
		}
		return moved
	}
	for d := range t.domains {
		for class := range t.domains[d] {
			c := &t.domains[d][class]
			if c.ops != c.opsAtLastPlunder || c.len() == 0 {
				c.opsAtLastPlunder = c.ops
				continue
			}
			// Idle since last plunder: evict everything, preserving the
			// freeing-domain tags by moving entries wholesale.
			for _, e := range c.entries {
				lc := &t.legacy[class]
				if len(lc.entries) < lc.max {
					lc.entries = append(lc.entries, e)
				} else {
					t.stats.Overflows++
					t.backing.FreeBatch(class, []uint64{e.addr})
				}
				moved++
			}
			c.entries = c.entries[:0]
			c.opsAtLastPlunder = c.ops
		}
	}
	t.stats.Plundered += moved
	if moved > 0 {
		t.tel.EventAdd(telemetry.EvTransferPlunder, moved, moved, 0)
	}
	return moved
}

// Drain flushes every cached object back to the backing tier; used at
// simulation teardown so span accounting balances.
func (t *TransferCaches) Drain() {
	flush := func(class int, c *cache) {
		if len(c.entries) == 0 {
			return
		}
		objs := make([]uint64, len(c.entries))
		for i, e := range c.entries {
			objs[i] = e.addr
		}
		c.entries = c.entries[:0]
		t.backing.FreeBatch(class, objs)
	}
	for d := range t.domains {
		for class := range t.domains[d] {
			flush(class, &t.domains[d][class])
		}
	}
	for class := range t.legacy {
		flush(class, &t.legacy[class])
	}
}

// CheckInvariants audits the layer: no cache may hold more objects than
// its bound (the byte caps are folded into max at construction, so an
// over-full cache is exactly a byte-bound overflow), and entry domains
// must be valid.
func (t *TransferCaches) CheckInvariants() []check.Violation {
	var vs []check.Violation
	audit := func(where string, class int, c *cache) {
		if len(c.entries) > c.max {
			vs = append(vs, check.Violationf("transfercache", check.KindStructure,
				"%s cache class %d holds %d objects (%d bytes) above its bound of %d",
				where, class, len(c.entries),
				int64(len(c.entries))*int64(t.sizes[class]), c.max))
		}
		for _, e := range c.entries {
			if e.domain != coldDomain && (int(e.domain) < 0 || (len(t.domains) > 0 && int(e.domain) >= len(t.domains))) {
				vs = append(vs, check.Violationf("transfercache", check.KindStructure,
					"%s cache class %d entry %#x tagged with invalid domain %d",
					where, class, e.addr, e.domain))
				break
			}
		}
	}
	for class := range t.legacy {
		audit("legacy", class, &t.legacy[class])
	}
	for d := range t.domains {
		for class := range t.domains[d] {
			audit(fmt.Sprintf("domain-%d", d), class, &t.domains[d][class])
		}
	}
	return vs
}

// OverstuffLegacyForTest forces objects into the legacy cache of a class
// past its bound, bypassing the overflow spill. It exists solely so the
// corruption self-test can prove the auditor detects cache byte-bound
// overflow; production code never calls it.
func (t *TransferCaches) OverstuffLegacyForTest(class int, addrs []uint64) {
	c := &t.legacy[class]
	for _, a := range addrs {
		c.entries = append(c.entries, entry{addr: a, domain: coldDomain})
	}
}

// CachedBytesByClass returns the bytes cached per size class across the
// legacy and per-domain caches — the middle-tier column of the
// per-class fragmentation table in the pageheapz report.
func (t *TransferCaches) CachedBytesByClass() []int64 {
	out := make([]int64, t.numClasses)
	add := func(c *cache, class int) {
		out[class] += int64(len(c.entries)) * int64(t.sizes[class])
	}
	for class := range t.legacy {
		add(&t.legacy[class], class)
	}
	for d := range t.domains {
		for class := range t.domains[d] {
			add(&t.domains[d][class], class)
		}
	}
	return out
}

// Stats returns a snapshot including current occupancy.
func (t *TransferCaches) Stats() Stats {
	s := t.stats
	count := func(c *cache, class int) {
		s.CachedObjects += int64(len(c.entries))
		s.CachedBytes += int64(len(c.entries)) * int64(t.sizes[class])
	}
	for class := range t.legacy {
		count(&t.legacy[class], class)
	}
	for d := range t.domains {
		for class := range t.domains[d] {
			count(&t.domains[d][class], class)
		}
	}
	return s
}
