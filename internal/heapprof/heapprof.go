// Package heapprof implements TCMalloc-style sampled heap profiling
// for the allocator simulation: the mechanism that produced the source
// paper's fleet-wide characterization (object size/lifetime CDFs,
// live-heap attribution, peak-heap analysis).
//
// Allocations are sampled with a Poisson byte process: an exponential
// gap with mean SampleIntervalBytes is drawn between samples, so an
// object of size s is picked with probability p = 1 - exp(-s/interval).
// Each sampled object carries unbiased "unsampling" weights (1/p
// objects, s/p bytes), making every profile total an unbiased estimate
// of the exact quantity — the property TestHeapzUnbiased pins to 2%.
//
// Samples are attributed to synthetic call-sites: the triple
// (workload name, size class, lifetime decade). Three views are
// maintained:
//
//   - heapz:     objects currently live (lifetime = age so far)
//   - allocz:    every sampled allocation ever (freed objects carry
//     their true lifetime)
//   - peakheapz: the live heap as of the high-water mark, captured by a
//     heap-pressure watchpoint (re-snapshotted only when the peak has
//     grown by peakGrowthFraction since the last capture, so capture
//     cost stays logarithmic in heap growth)
//
// The profiler is deliberately not safe for concurrent use: one
// allocator, one goroutine, mirroring the rest of the simulation. All
// exports are byte-deterministic for a given seed — live-table
// condensation sorts samples before folding floats so map iteration
// order can never leak into output (same contract as PR 2/3).
package heapprof

import (
	"sort"

	"wsmalloc/internal/rng"
)

// DefaultSampleIntervalBytes is TCMalloc's production default mean
// sampling gap (512 KiB).
const DefaultSampleIntervalBytes = 512 << 10

// peakGrowthFraction is the minimum fractional growth of live requested
// bytes between peakheapz captures: the watchpoint re-arms after 1%.
const peakGrowthFraction = 0.01

// Config enables and tunes the sampled heap profiler.
type Config struct {
	// Enabled turns the profiler on. Disabled costs the allocator one
	// nil-check branch per malloc and per free.
	Enabled bool
	// SampleIntervalBytes is the mean of the exponential inter-sample
	// gap. Zero means DefaultSampleIntervalBytes.
	SampleIntervalBytes int64
	// Seed seeds the gap RNG; the fleet mixes the machine seed in so
	// arms stay decorrelated and reproducible.
	Seed uint64
}

func (c Config) interval() int64 {
	if c.SampleIntervalBytes > 0 {
		return c.SampleIntervalBytes
	}
	return DefaultSampleIntervalBytes
}

// liveFilterSize buckets the live-address counting filter. Live
// samples number around heap/interval (a handful under the daemon's
// 8 MiB interval), so 256 counters keep the expected false-positive
// rate — the only case that still pays the map lookup — well under 1%.
const liveFilterSize = 256

// liveFilterIdx hashes an address into the counting filter.
func liveFilterIdx(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> 56)
}

// siteKey is the synthetic call-site: the simulation has no stack
// traces, so attribution is by workload × size class × lifetime decade
// (the axes of the paper's Figs 5-8).
type siteKey struct {
	workload   string
	class      int // sizeclass index, span.LargeClass (-1) for large
	classBytes int // rounded object size in bytes
	lifeExp    int // floor(log10(lifetime ns)), clamped to [3, 16]
}

// liveSample is one sampled, still-live object.
type liveSample struct {
	workload   string
	class      int
	classBytes int
	size       int
	bornAt     int64
	objW       float64 // 1/p unsampling weight (estimated objects)
	byteW      float64 // size/p unsampling weight (estimated bytes)
}

// siteAcc accumulates unsampled weights for one site.
type siteAcc struct {
	samples int64
	objects float64
	bytes   float64
}

// classLifeAcc sums observed lifetime decades for one size class.
type classLifeAcc struct {
	sumDecade int64
	samples   int64
}

// Profiler is the per-allocator sampling state.
type Profiler struct {
	cfg      Config
	r        *rng.RNG
	interval float64

	workload string

	// bytesUntil counts down to the next sample (Poisson byte process).
	bytesUntil int64

	// live maps sampled object address -> sample.
	live        map[uint64]liveSample
	liveSamples int64

	// liveFilter is a counting filter over live sample addresses: every
	// free checks one counter before touching the map, so for the
	// overwhelming majority of objects — never sampled — the enabled
	// profiler's free cost is a multiply-shift hash and one predictable
	// branch instead of a map lookup. The continuous-profiling daemon
	// arms every machine with a sparse profiler, which makes this the
	// fleet's hottest profiling instruction. Derived state: restore
	// rebuilds it from the live table.
	liveFilter [liveFilterSize]uint32

	// cum accumulates freed samples at their true lifetime, updated in
	// free order (deterministic program order, no map iteration).
	cum        map[siteKey]siteAcc
	cumSamples int64

	// classLife accumulates the lifetime decades of freed samples per
	// size class — the feedback signal behind the pageheap's
	// heapprof filler policy. Integer sums in free order,
	// so the derived means are deterministic at any worker count.
	classLife map[int]classLifeAcc

	// peak is the condensed live table as of the last watchpoint
	// capture.
	peak         []Site
	peakSamples  int64
	peakNowNs    int64
	peakObjects  float64
	peakBytes    float64
	peakArmBytes int64 // live requested bytes at last capture
}

// New returns a profiler, or nil when cfg.Enabled is false so callers
// keep the disabled cost to a single nil check.
func New(cfg Config) *Profiler {
	if !cfg.Enabled {
		return nil
	}
	p := &Profiler{
		cfg:       cfg,
		r:         rng.New(cfg.Seed ^ 0x6865617070726f66), // "heapprof"
		interval:  float64(cfg.interval()),
		live:      make(map[uint64]liveSample),
		cum:       make(map[siteKey]siteAcc),
		classLife: make(map[int]classLifeAcc),
	}
	p.bytesUntil = p.nextGap()
	return p
}

// nextGap draws the next exponential inter-sample gap (>= 1 byte).
func (p *Profiler) nextGap() int64 {
	g := int64(p.interval * p.r.ExpFloat64())
	if g < 1 {
		g = 1
	}
	return g
}

// SetWorkload names the synthetic call-site for subsequent samples;
// the workload driver installs its profile name before issuing ops.
func (p *Profiler) SetWorkload(name string) { p.workload = name }

// SampleAlloc observes one allocation on the hot path. The fast path
// is a single subtraction and compare; only the ~1-in-interval/size
// sampled allocations take the slow path.
func (p *Profiler) SampleAlloc(addr uint64, size, class, classBytes int, now int64) {
	p.bytesUntil -= int64(size)
	if p.bytesUntil > 0 {
		return
	}
	for p.bytesUntil <= 0 {
		p.bytesUntil += p.nextGap()
	}
	// Inclusion probability of a size-s object under the Poisson byte
	// process; weights 1/p and s/p make totals unbiased.
	pr := samplingProbability(float64(size), p.interval)
	if _, exists := p.live[addr]; !exists {
		p.liveFilter[liveFilterIdx(addr)]++
	}
	p.live[addr] = liveSample{
		workload:   p.workload,
		class:      class,
		classBytes: classBytes,
		size:       size,
		bornAt:     now,
		objW:       1 / pr,
		byteW:      float64(size) / pr,
	}
	p.liveSamples++
}

// NoteFree retires a sampled object: it leaves the live view and its
// true lifetime is folded into the cumulative (allocz) site table.
func (p *Profiler) NoteFree(addr uint64, now int64) {
	idx := liveFilterIdx(addr)
	if p.liveFilter[idx] == 0 {
		return // fast path: provably never sampled
	}
	s, ok := p.live[addr]
	if !ok {
		return // filter collision with a different live sample
	}
	p.liveFilter[idx]--
	delete(p.live, addr)
	p.liveSamples--
	k := siteKey{s.workload, s.class, s.classBytes, lifeExp(now - s.bornAt)}
	acc := p.cum[k]
	acc.samples++
	acc.objects += s.objW
	acc.bytes += s.byteW
	p.cum[k] = acc
	p.cumSamples++
	cl := p.classLife[s.class]
	cl.sumDecade += int64(k.lifeExp)
	cl.samples++
	p.classLife[s.class] = cl
}

// ClassLifetime reports the mean observed lifetime decade of freed
// sampled objects for a size class, plus the sample count behind it —
// the pageheap.LifetimeFeedback signature, so a method value of this
// profiler plugs straight into the heapprof filler policy.
func (p *Profiler) ClassLifetime(class int) (meanDecade float64, samples int64) {
	cl := p.classLife[class]
	if cl.samples == 0 {
		return 0, 0
	}
	return float64(cl.sumDecade) / float64(cl.samples), cl.samples
}

// MaybePeak is the heap-pressure watchpoint: the allocator calls it
// whenever live requested bytes reach a new high-water mark, and the
// profiler re-captures the live table only when the peak has grown by
// peakGrowthFraction since the last capture.
func (p *Profiler) MaybePeak(liveRequested, now int64) {
	if p.peakArmBytes > 0 &&
		float64(liveRequested) < float64(p.peakArmBytes)*(1+peakGrowthFraction) {
		return
	}
	p.peakArmBytes = liveRequested
	p.peakNowNs = now
	p.peak, p.peakSamples, p.peakObjects, p.peakBytes = p.condenseLive(now)
}

// condenseLive folds the live sample table into sorted sites. Samples
// are sorted (site key, then address) before the float fold so the
// result is independent of map iteration order — required for the
// byte-identical -j 1 vs -j 4 export contract.
func (p *Profiler) condenseLive(now int64) (sites []Site, samples int64, objects, bytes float64) {
	type entry struct {
		k     siteKey
		addr  uint64
		objW  float64
		byteW float64
	}
	entries := make([]entry, 0, len(p.live))
	for addr, s := range p.live {
		k := siteKey{s.workload, s.class, s.classBytes, lifeExp(now - s.bornAt)}
		entries = append(entries, entry{k, addr, s.objW, s.byteW})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].k != entries[j].k {
			return keyLess(entries[i].k, entries[j].k)
		}
		return entries[i].addr < entries[j].addr
	})
	for _, e := range entries {
		if n := len(sites); n == 0 || sites[n-1].key() != e.k {
			sites = append(sites, siteFromKey(e.k))
		}
		s := &sites[len(sites)-1]
		s.Samples++
		s.Objects += e.objW
		s.Bytes += e.byteW
		samples++
		objects += e.objW
		bytes += e.byteW
	}
	return sites, samples, objects, bytes
}

// condenseCum renders the cumulative table sorted by site key. The
// accumulated floats themselves were built in free order (deterministic)
// so only the output ordering needs fixing here.
func (p *Profiler) condenseCum() (sites []Site, objects, bytes float64) {
	keys := make([]siteKey, 0, len(p.cum))
	for k := range p.cum {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for _, k := range keys {
		acc := p.cum[k]
		s := siteFromKey(k)
		s.Samples = acc.samples
		s.Objects = acc.objects
		s.Bytes = acc.bytes
		sites = append(sites, s)
		objects += acc.objects
		bytes += acc.bytes
	}
	return sites, objects, bytes
}

// Profiles renders the three views as of virtual time now. label tags
// the profiles (fleet arms use "control"/"experiment").
func (p *Profiler) Profiles(now int64, label string) []Profile {
	interval := p.cfg.interval()

	liveSites, liveSamples, liveObjs, liveBytes := p.condenseLive(now)
	heapz := Profile{
		View: ViewHeapz, Label: label, NowNs: now,
		SampleIntervalBytes: interval,
		Samples:             liveSamples,
		Objects:             liveObjs,
		Bytes:               liveBytes,
		Sites:               liveSites,
	}

	// allocz = freed samples at true lifetime + live samples at age so
	// far, merged per site.
	cumSites, cumObjs, cumBytes := p.condenseCum()
	allocz := Profile{
		View: ViewAllocz, Label: label, NowNs: now,
		SampleIntervalBytes: interval,
		Samples:             p.cumSamples + liveSamples,
		Objects:             cumObjs + liveObjs,
		Bytes:               cumBytes + liveBytes,
		Sites:               mergeSites(cumSites, liveSites),
	}

	peakSites := make([]Site, len(p.peak))
	copy(peakSites, p.peak)
	peakheapz := Profile{
		View: ViewPeakheapz, Label: label, NowNs: now,
		PeakNowNs:           p.peakNowNs,
		SampleIntervalBytes: interval,
		Samples:             p.peakSamples,
		Objects:             p.peakObjects,
		Bytes:               p.peakBytes,
		Sites:               peakSites,
	}
	return []Profile{heapz, allocz, peakheapz}
}

// LiveSampleCount reports the number of live sampled objects (tests).
func (p *Profiler) LiveSampleCount() int64 { return p.liveSamples }
