// Package core composes the full TCMalloc model from its tiers: size
// classes, per-CPU front-end caches, the transfer-cache middle tier, the
// central free lists, and the hugepage-aware pageheap over the simulated
// OS (Fig. 1). It exposes the malloc/free API that workloads drive, a
// per-tier cycle cost model calibrated to the paper's Fig. 4 latencies,
// and the telemetry behind the characterization figures (cycles
// breakdown, fragmentation breakdown, hugepage coverage).
package core

import (
	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/check"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/transfercache"
)

// The tier cost model, in ns per interaction, calibrated to the mean
// allocation latencies the paper measures per cache tier (Fig. 4).
const (
	// latCPUCache is the restartable-sequence fast path (~40
	// instructions).
	latCPUCache = 3.1
	// latTransfer is a mutex-protected transfer cache interaction.
	latTransfer = 21.4
	// latCentralFreeList is a span-list interaction.
	latCentralFreeList = 59.3
	// latPageHeap is a hugepage-filler interaction.
	latPageHeap = 137.4
	// latMmap is a zero-filled 2 MiB hugepage request from the OS.
	latMmap = 12916.7
	// latPrefetch is the next-object prefetch issued on every
	// allocation.
	latPrefetch = 1.85
	// latSampled is the extra cost of recording a sampled allocation's
	// stack trace.
	latSampled = 2600
	// latOther covers unclassified bookkeeping per operation.
	latOther = 0.25
)

// The background-duty constants: idle NUCA transfer caches are
// plundered every plunderIntervalNs, and the gradual release to the OS
// keeps free memory up to releaseSlackFraction of in-use memory.
const (
	plunderIntervalNs    = 10e6
	releaseSlackFraction = 0.10
)

// Config selects the design point: each tier's config names its policy
// in one enum field, so each of the paper's four redesigns can be
// toggled independently, which is how the fleet A/B experiments are
// expressed.
type Config struct {
	// PerCPU configures the front-end (static vs heterogeneous, §4.1).
	PerCPU percpu.Config
	// Transfer configures the middle tier (NUCA-aware or not, §4.2).
	// NumDomains is filled in from the machine topology at New.
	Transfer transfercache.Config
	// CFL configures the central free lists (span prioritization, §4.3).
	CFL centralfreelist.Config
	// PageHeap configures the back-end (lifetime-aware filler, §4.4).
	PageHeap pageheap.Config

	// SampleIntervalBytes triggers one sampled allocation per this many
	// allocated bytes (the paper: 2 MiB). Zero disables sampling.
	SampleIntervalBytes int64

	// ReleaseIntervalNs and ReleaseBytesPerInterval implement the
	// gradual background release to the OS: every interval, free memory
	// beyond releaseSlackFraction of in-use memory is released, at most
	// ReleaseBytesPerInterval at a time (the paper: TCMalloc releases
	// memory gradually, prioritizing whole hugepages, §3).
	ReleaseIntervalNs       int64
	ReleaseBytesPerInterval int64

	// Check configures the heap-integrity sanitizer: a shadow heap that
	// independently records every allocation and verifies every free
	// (double-free, unknown-pointer, size/class mismatch, overlap). The
	// zero value disables it; check.DefaultConfig() enables full
	// coverage. Violations never panic — they are reported through
	// Stats and CheckInvariants.
	Check check.Config
	// Faults installs a deterministic fault plan in the simulated OS
	// (seeded mmap failures, mapped-byte budget). The zero value injects
	// nothing.
	Faults mem.FaultPlan

	// Telemetry configures the metrics registry, event tracer and
	// time-series sampler. The zero value disables telemetry entirely:
	// every instrumentation site then costs a single nil check.
	Telemetry telemetry.Config

	// HeapProfile configures the Poisson-sampled heap profiler behind
	// the heapz/allocz/peakheapz views. The zero value disables it:
	// malloc and free then each pay a single nil check.
	HeapProfile heapprof.Config
}

// ConfigForDesign builds the config for one point in the allocator
// design space: each tier's baseline configuration with the design's
// policy selected (the stealing per-CPU policies run at the halved
// 1.5 MiB budget, and the occupancy-list span policies keep the paper's
// L = 8 lists), plus the tier-independent sampling interval and release
// cadence. Telemetry, heap profiling, sanitizer and fault injection stay
// at their zero (disabled) values — callers opt in per run.
func ConfigForDesign(d policy.DesignPoint) (Config, error) {
	if err := d.Validate(); err != nil {
		return Config{}, err
	}
	tc := transfercache.DefaultConfig()
	tc.Policy = d.TC
	cfl := centralfreelist.LegacyConfig()
	if d.CFL != centralfreelist.Legacy {
		cfl = centralfreelist.DefaultConfig()
		cfl.Policy = d.CFL
	}
	ph := pageheap.DefaultConfig()
	ph.Filler = d.Filler
	return Config{
		PerCPU:                  percpu.ConfigFor(d.PerCPU),
		Transfer:                tc,
		CFL:                     cfl,
		PageHeap:                ph,
		SampleIntervalBytes:     2 << 20,
		ReleaseIntervalNs:       5e6,
		ReleaseBytesPerInterval: 64 << 20,
	}, nil
}

// mustConfigForDesign builds a config for a design point that is known
// valid (the canonical Baseline/Optimized points).
func mustConfigForDesign(d policy.DesignPoint) Config {
	c, err := ConfigForDesign(d)
	if err != nil {
		panic(err)
	}
	return c
}

// BaselineConfig returns the pre-redesign TCMalloc: static 3 MiB per-CPU
// caches, a centralized transfer cache, a singleton-list CFL, and the
// hugepage-aware pageheap of Hunter et al. without lifetime awareness.
// It is the registry's policy.Baseline() design point.
func BaselineConfig() Config {
	return mustConfigForDesign(policy.Baseline())
}

// OptimizedConfig returns the paper's full redesign: heterogeneous
// per-CPU caches, NUCA-aware transfer caches, span prioritization, and
// the lifetime-aware hugepage filler (§4.5). It is the registry's
// policy.Optimized() design point.
func OptimizedConfig() Config {
	return mustConfigForDesign(policy.Optimized())
}
