// Package workload synthesizes warehouse-scale allocation workloads: the
// five production applications with the highest malloc usage (§2.3), the
// four dedicated-server benchmarks, and a SPEC-like control. Each profile
// specifies an object size distribution calibrated to the fleet CDF of
// Fig. 7, a size-conditioned lifetime model matching Fig. 8, diurnal
// thread dynamics (Fig. 9a), and the malloc-cycle intensity of Fig. 5a.
package workload

import (
	"wsmalloc/internal/rng"
)

// Time units (virtual nanoseconds).
const (
	Microsecond = int64(1e3)
	Millisecond = int64(1e6)
	Second      = int64(1e9)
	Minute      = 60 * Second
	Hour        = 60 * Minute
	Day         = 24 * Hour
)

// LifetimeBand gives the lifetime distribution for objects up to MaxSize
// bytes.
type LifetimeBand struct {
	MaxSize int
	Dist    rng.Dist // nanoseconds
}

// LifetimeModel samples an object lifetime conditioned on its size,
// reproducing the size-vs-lifetime structure of Fig. 8 (small objects
// skew short-lived, large objects long-lived, with heavy tails in every
// band).
type LifetimeModel struct {
	Bands []LifetimeBand
}

// Sample draws a lifetime in nanoseconds for an object of the given
// size: the Fig. 8 distribution, unwarped.
func (m LifetimeModel) Sample(r *rng.RNG, size int) int64 {
	return m.SampleWarped(r, size, rng.Warp{})
}

// SampleWarped draws a lifetime with the time warp w applied. Mixture
// bands draw it in log space and apply the warp before their one Exp
// (see rng.Mixture).
func (m LifetimeModel) SampleWarped(r *rng.RNG, size int, w rng.Warp) int64 {
	return int64(rng.SampleWarped(m.band(size), r, w))
}

// band returns the lifetime distribution for objects of the given size.
func (m LifetimeModel) band(size int) rng.Dist {
	for _, b := range m.Bands {
		if size <= b.MaxSize {
			return b.Dist
		}
	}
	return m.Bands[len(m.Bands)-1].Dist
}

// Profile describes one application's allocation behaviour.
type Profile struct {
	// Name identifies the workload ("spanner", "monarch", ...).
	Name string
	// SizeDist samples requested object sizes in bytes.
	SizeDist rng.Dist
	// Lifetime samples object lifetimes conditioned on size.
	Lifetime LifetimeModel
	// MallocFraction is the fraction of CPU cycles the application
	// spends in malloc/free (Fig. 5a: fleet 4.3%, top apps 3.6-10.1%).
	MallocFraction float64
	// MeanAllocGapNs is the mean virtual time between allocations per
	// active thread.
	MeanAllocGapNs float64
	// Threads models the worker-thread dynamics.
	Threads ThreadDynamics
	// CPUSet is the number of CPUs the control plane allows the
	// application to run on (co-location constraint, §4.1).
	CPUSet int
	// FleetWeight is the relative share of this workload when composing
	// a fleet mix.
	FleetWeight float64
	// PreloadBytes is the resident heap the process carries before the
	// measured window: production services hold caches, tables, and
	// model state built up over days. Preloaded objects are long-lived
	// within the run.
	PreloadBytes int64
	// PreloadDist samples preload block sizes; nil uses DefaultPreloadDist.
	PreloadDist rng.Dist
}

// DefaultPreloadDist models resident-state blocks: cache pages, tables,
// arena chunks (log-normal around ~270 KiB).
func DefaultPreloadDist() rng.Dist {
	return rng.LogNormalDist{Mu: 12.5, Sigma: 1.0, Min: 4 << 10, Max: 32 << 20}
}

// fleetSizeDist builds a size mixture matching Fig. 7: ~98% of objects
// below 1 KiB carrying ~28% of bytes, ~50% of bytes above 8 KiB, and
// ~22% of bytes above the 256 KiB size-class ceiling.
func fleetSizeDist() rng.Dist {
	return rng.NewMixture(
		// Small request-processing objects (mean ~60 B).
		rng.Component{Weight: 0.98, Dist: rng.LogNormalDist{Mu: 3.7, Sigma: 0.95, Min: 8, Max: 1024}},
		// Buffers in 1-8 KiB (mean ~2.5 KiB).
		rng.Component{Weight: 0.0185, Dist: rng.LogNormalDist{Mu: 7.65, Sigma: 0.55, Min: 1024, Max: 8 << 10}},
		// Large buffers 8-256 KiB (mean ~40 KiB).
		rng.Component{Weight: 0.00147, Dist: rng.LogNormalDist{Mu: 10.3, Sigma: 0.75, Min: 8 << 10, Max: 256 << 10}},
		// Huge allocations above the size-class ceiling (mean ~1 MiB).
		rng.Component{Weight: 0.00005, Dist: rng.ParetoDist{Xm: 260 << 10, Alpha: 1.35, Max: 64 << 20}},
	)
}

// fleetLifetime builds the Fig. 8 structure: lifetimes span ten decades;
// 46% of sub-KiB objects die within 1 ms; objects above 1 GiB mostly
// live beyond a day. All values in virtual ns.
func fleetLifetime() LifetimeModel {
	return LifetimeModel{Bands: []LifetimeBand{
		{MaxSize: 1 << 10, Dist: rng.NewMixture(
			rng.Component{Weight: 0.46, Dist: rng.LogNormalDist{Mu: 11.5, Sigma: 1.6, Min: 1e3, Max: 1e6}},  // < 1 ms
			rng.Component{Weight: 0.40, Dist: rng.LogNormalDist{Mu: 17.5, Sigma: 2.0, Min: 1e6, Max: 60e9}}, // ms..min
			rng.Component{Weight: 0.14, Dist: rng.ParetoDist{Xm: 60e9, Alpha: 0.9, Max: 7 * 86400e9}},       // heavy tail to a week
		)},
		{MaxSize: 256 << 10, Dist: rng.NewMixture(
			// Mid-size buffers churn: the long tail is thin, which is
			// what makes span capacity a good lifetime proxy (Fig. 16).
			rng.Component{Weight: 0.30, Dist: rng.LogNormalDist{Mu: 12.5, Sigma: 1.5, Min: 1e3, Max: 1e6}},
			rng.Component{Weight: 0.62, Dist: rng.LogNormalDist{Mu: 19.0, Sigma: 2.0, Min: 1e6, Max: 600e9}},
			rng.Component{Weight: 0.08, Dist: rng.ParetoDist{Xm: 600e9, Alpha: 0.85, Max: 7 * 86400e9}},
		)},
		{MaxSize: 1 << 30, Dist: rng.NewMixture(
			rng.Component{Weight: 0.25, Dist: rng.LogNormalDist{Mu: 15.0, Sigma: 1.8, Min: 1e4, Max: 1e9}},
			rng.Component{Weight: 0.40, Dist: rng.LogNormalDist{Mu: 22.0, Sigma: 1.6, Min: 1e9, Max: 3600e9}},
			rng.Component{Weight: 0.35, Dist: rng.ParetoDist{Xm: 3600e9, Alpha: 0.8, Max: 7 * 86400e9}},
		)},
		{MaxSize: 1 << 62, Dist: rng.NewMixture(
			// 65% of >1 GiB objects live longer than a day.
			rng.Component{Weight: 0.35, Dist: rng.LogNormalDist{Mu: 22.0, Sigma: 1.5, Min: 1e9, Max: 86400e9}},
			rng.Component{Weight: 0.65, Dist: rng.ParetoDist{Xm: 86400e9, Alpha: 1.1, Max: 7 * 86400e9}},
		)},
	}}
}

// shiftSizes scales a size distribution's mixture weights toward a
// band, used to differentiate application profiles.
func withWeight(w float64, d rng.Dist) rng.Component { return rng.Component{Weight: w, Dist: d} }

// Spanner models a distributed SQL database node with a large in-memory
// cache of storage data: block-sized buffers with long lifetimes on top
// of fleet-like request churn.
func Spanner() Profile {
	return Profile{
		Name: "spanner",
		SizeDist: rng.NewMixture(
			withWeight(0.90, rng.LogNormalDist{Mu: 4.2, Sigma: 1.0, Min: 8, Max: 2048}),
			withWeight(0.08, rng.LogNormalDist{Mu: 9.1, Sigma: 0.8, Min: 2 << 10, Max: 64 << 10}),
			withWeight(0.02, rng.LogNormalDist{Mu: 11.8, Sigma: 0.7, Min: 64 << 10, Max: 4 << 20}), // cache blocks
		),
		Lifetime:       fleetLifetime(),
		MallocFraction: 0.036,
		MeanAllocGapNs: 9600,
		Threads:        ThreadDynamics{Base: 28, Amplitude: 10, PeriodNs: 8 * Hour, Jitter: 0.15, SpikeProb: 0.02, SpikeBoost: 8},
		CPUSet:         48,
		FleetWeight:    0.24,
		PreloadBytes:   1536 << 20,
	}
}

// Monarch models the in-memory time-series store: torrents of small
// stream points, batch retirement, and long-lived series state.
func Monarch() Profile {
	return Profile{
		Name: "monarch",
		SizeDist: rng.NewMixture(
			withWeight(0.97, rng.LogNormalDist{Mu: 3.4, Sigma: 0.8, Min: 8, Max: 512}),
			withWeight(0.028, rng.LogNormalDist{Mu: 8.0, Sigma: 0.9, Min: 512, Max: 32 << 10}),
			withWeight(0.002, rng.LogNormalDist{Mu: 12.1, Sigma: 0.6, Min: 128 << 10, Max: 8 << 20}),
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			// Stream points die in bulk when windows close; series state
			// is effectively immortal. This cohort structure is what
			// makes monarch the biggest winner from span prioritization
			// (Fig. 14: -2.76%).
			{MaxSize: 512, Dist: rng.NewMixture(
				withWeight(0.60, rng.LogNormalDist{Mu: 13.0, Sigma: 0.8, Min: 1e5, Max: 1e7}),
				withWeight(0.36, rng.LogNormalDist{Mu: 18.4, Sigma: 1.0, Min: 1e7, Max: 300e9}),
				withWeight(0.04, rng.ParetoDist{Xm: 300e9, Alpha: 0.8, Max: 7 * 86400e9}),
			)},
			{MaxSize: 1 << 62, Dist: fleetLifetime().Bands[2].Dist},
		}},
		MallocFraction: 0.101,
		MeanAllocGapNs: 3600,
		Threads:        ThreadDynamics{Base: 36, Amplitude: 14, PeriodNs: 6 * Hour, Jitter: 0.2, SpikeProb: 0.04, SpikeBoost: 12},
		CPUSet:         64,
		FleetWeight:    0.18,
		PreloadBytes:   768 << 20,
	}
}

// Bigtable models the tablet server: key/value blocks, memtable churn,
// and compaction buffers.
func Bigtable() Profile {
	return Profile{
		Name: "bigtable",
		SizeDist: rng.NewMixture(
			withWeight(0.95, rng.LogNormalDist{Mu: 4.6, Sigma: 1.1, Min: 8, Max: 4096}),
			withWeight(0.045, rng.LogNormalDist{Mu: 9.6, Sigma: 0.7, Min: 4 << 10, Max: 128 << 10}),
			withWeight(0.005, rng.LogNormalDist{Mu: 12.5, Sigma: 0.8, Min: 256 << 10, Max: 16 << 20}),
		),
		Lifetime:       fleetLifetime(),
		MallocFraction: 0.072,
		MeanAllocGapNs: 6000,
		Threads:        ThreadDynamics{Base: 32, Amplitude: 12, PeriodNs: 12 * Hour, Jitter: 0.12, SpikeProb: 0.02, SpikeBoost: 6},
		CPUSet:         56,
		FleetWeight:    0.2,
		PreloadBytes:   1024 << 20,
	}
}

// F1Query models the distributed query engine: bursty per-query arenas
// with almost everything dying at query end.
func F1Query() Profile {
	return Profile{
		Name: "f1-query",
		SizeDist: rng.NewMixture(
			withWeight(0.93, rng.LogNormalDist{Mu: 4.9, Sigma: 1.2, Min: 8, Max: 8192}),
			withWeight(0.068, rng.LogNormalDist{Mu: 9.9, Sigma: 0.9, Min: 8 << 10, Max: 256 << 10}),
			withWeight(0.002, rng.ParetoDist{Xm: 260 << 10, Alpha: 1.2, Max: 64 << 20}),
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			{MaxSize: 1 << 62, Dist: rng.NewMixture(
				withWeight(0.80, rng.LogNormalDist{Mu: 16.0, Sigma: 1.4, Min: 1e5, Max: 30e9}), // query-scoped
				withWeight(0.19, rng.LogNormalDist{Mu: 20.0, Sigma: 1.2, Min: 30e9, Max: 3600e9}),
				withWeight(0.01, rng.ParetoDist{Xm: 3600e9, Alpha: 1.0, Max: 7 * 86400e9}),
			)},
		}},
		MallocFraction: 0.081,
		MeanAllocGapNs: 4400,
		Threads:        ThreadDynamics{Base: 24, Amplitude: 16, PeriodNs: 4 * Hour, Jitter: 0.3, SpikeProb: 0.08, SpikeBoost: 20},
		CPUSet:         64,
		FleetWeight:    0.16,
		PreloadBytes:   384 << 20,
	}
}

// Disk models the low-level distributed storage server: I/O buffers
// dominated by page-multiple sizes.
func Disk() Profile {
	return Profile{
		Name: "disk",
		SizeDist: rng.NewMixture(
			withWeight(0.80, rng.LogNormalDist{Mu: 4.0, Sigma: 1.0, Min: 8, Max: 2048}),
			withWeight(0.17, rng.NewDiscrete(
				[]float64{4 << 10, 8 << 10, 16 << 10, 64 << 10, 128 << 10},
				[]float64{6, 8, 4, 2, 1})),
			withWeight(0.03, rng.NewDiscrete(
				[]float64{512 << 10, 1 << 20, 2 << 20},
				[]float64{4, 2, 1})),
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			{MaxSize: 2048, Dist: fleetLifetime().Bands[0].Dist},
			{MaxSize: 1 << 62, Dist: rng.NewMixture(
				withWeight(0.70, rng.LogNormalDist{Mu: 15.5, Sigma: 1.2, Min: 1e5, Max: 10e9}), // I/O-scoped
				withWeight(0.30, rng.LogNormalDist{Mu: 21.0, Sigma: 1.5, Min: 10e9, Max: 86400e9}),
			)},
		}},
		MallocFraction: 0.064,
		MeanAllocGapNs: 5200,
		Threads:        ThreadDynamics{Base: 20, Amplitude: 6, PeriodNs: 24 * Hour, Jitter: 0.1, SpikeProb: 0.03, SpikeBoost: 10},
		CPUSet:         32,
		FleetWeight:    0.22,
		PreloadBytes:   768 << 20,
	}
}

// Fleet is the aggregate fleet profile used for fleet-wide rows.
func Fleet() Profile {
	return Profile{
		Name:           "fleet",
		SizeDist:       fleetSizeDist(),
		Lifetime:       fleetLifetime(),
		MallocFraction: 0.043,
		MeanAllocGapNs: 7200,
		Threads:        ThreadDynamics{Base: 26, Amplitude: 10, PeriodNs: 12 * Hour, Jitter: 0.18, SpikeProb: 0.03, SpikeBoost: 10},
		CPUSet:         64,
		FleetWeight:    1,
		PreloadBytes:   1024 << 20,
	}
}

// Redis models the single-threaded in-memory key-value store benchmark
// (redis-benchmark, 500 connections, 1000 B values).
func Redis() Profile {
	return Profile{
		Name: "redis",
		SizeDist: rng.NewMixture(
			withWeight(0.55, rng.NewDiscrete([]float64{1000}, []float64{1})), // value payloads
			withWeight(0.40, rng.LogNormalDist{Mu: 3.9, Sigma: 0.7, Min: 16, Max: 512}),
			withWeight(0.05, rng.LogNormalDist{Mu: 8.8, Sigma: 0.8, Min: 2 << 10, Max: 64 << 10}),
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			{MaxSize: 1 << 62, Dist: rng.NewMixture(
				withWeight(0.55, rng.LogNormalDist{Mu: 13.0, Sigma: 1.2, Min: 1e4, Max: 1e8}), // request-scoped
				withWeight(0.45, rng.ParetoDist{Xm: 1e9, Alpha: 0.75, Max: 3600e9}),           // stored values
			)},
		}},
		MallocFraction: 0.058,
		MeanAllocGapNs: 2800,
		Threads:        ThreadDynamics{Base: 1, Amplitude: 0, PeriodNs: Hour, Jitter: 0, SpikeProb: 0, SpikeBoost: 0},
		CPUSet:         1, // single-threaded: one per-CPU cache (§4.1)
		FleetWeight:    0,
		PreloadBytes:   512 << 20,
	}
}

// DataPipeline models the single-process word-count pipeline over a 1 GiB
// input: huge token churn with phase-correlated deaths.
func DataPipeline() Profile {
	return Profile{
		Name: "data-pipeline",
		SizeDist: rng.NewMixture(
			withWeight(0.985, rng.LogNormalDist{Mu: 3.0, Sigma: 0.7, Min: 8, Max: 256}), // tokens
			withWeight(0.014, rng.LogNormalDist{Mu: 9.0, Sigma: 1.0, Min: 1 << 10, Max: 128 << 10}),
			withWeight(0.001, rng.NewDiscrete([]float64{1 << 20, 4 << 20, 16 << 20}, []float64{4, 2, 1})),
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			{MaxSize: 256, Dist: rng.NewMixture(
				withWeight(0.75, rng.LogNormalDist{Mu: 12.0, Sigma: 1.0, Min: 1e3, Max: 1e7}),
				withWeight(0.25, rng.LogNormalDist{Mu: 18.0, Sigma: 1.0, Min: 1e7, Max: 120e9}), // counting table
			)},
			{MaxSize: 1 << 62, Dist: rng.LogNormalDist{Mu: 19.0, Sigma: 1.3, Min: 1e8, Max: 600e9}},
		}},
		MallocFraction: 0.093,
		MeanAllocGapNs: 2000,
		Threads:        ThreadDynamics{Base: 12, Amplitude: 0, PeriodNs: Hour, Jitter: 0.05, SpikeProb: 0, SpikeBoost: 0},
		CPUSet:         16,
		FleetWeight:    0,
		PreloadBytes:   256 << 20,
	}
}

// ImageProcessing models the image filter/transform server driven by a
// synthetic concurrent client generator.
func ImageProcessing() Profile {
	return Profile{
		Name: "image-processing",
		SizeDist: rng.NewMixture(
			withWeight(0.85, rng.LogNormalDist{Mu: 4.5, Sigma: 1.0, Min: 8, Max: 4096}),
			withWeight(0.10, rng.LogNormalDist{Mu: 11.0, Sigma: 0.9, Min: 16 << 10, Max: 256 << 10}), // tiles
			withWeight(0.05, rng.LogNormalDist{Mu: 14.3, Sigma: 0.8, Min: 512 << 10, Max: 32 << 20}), // frames
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			{MaxSize: 1 << 62, Dist: rng.NewMixture(
				withWeight(0.85, rng.LogNormalDist{Mu: 16.5, Sigma: 1.1, Min: 1e6, Max: 60e9}), // request-scoped
				withWeight(0.15, rng.LogNormalDist{Mu: 20.5, Sigma: 1.2, Min: 60e9, Max: 86400e9}),
			)},
		}},
		MallocFraction: 0.067,
		MeanAllocGapNs: 6400,
		Threads:        ThreadDynamics{Base: 16, Amplitude: 8, PeriodNs: 2 * Hour, Jitter: 0.25, SpikeProb: 0.05, SpikeBoost: 12},
		CPUSet:         32,
		FleetWeight:    0,
		PreloadBytes:   256 << 20,
	}
}

// Tensorflow models TF-Serving running InceptionV3: tensor arenas with
// Eigen's complex allocation behaviour (large aligned buffers plus small
// metadata churn).
func Tensorflow() Profile {
	return Profile{
		Name: "tensorflow",
		SizeDist: rng.NewMixture(
			withWeight(0.80, rng.LogNormalDist{Mu: 4.3, Sigma: 1.3, Min: 8, Max: 8192}),
			withWeight(0.15, rng.LogNormalDist{Mu: 11.5, Sigma: 1.2, Min: 8 << 10, Max: 256 << 10}),
			withWeight(0.05, rng.LogNormalDist{Mu: 14.8, Sigma: 1.0, Min: 256 << 10, Max: 64 << 20}), // tensors
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			{MaxSize: 8192, Dist: rng.NewMixture(
				withWeight(0.70, rng.LogNormalDist{Mu: 14.0, Sigma: 1.2, Min: 1e4, Max: 1e9}),
				withWeight(0.30, rng.LogNormalDist{Mu: 19.5, Sigma: 1.3, Min: 1e9, Max: 3600e9}),
			)},
			{MaxSize: 1 << 62, Dist: rng.NewMixture(
				withWeight(0.60, rng.LogNormalDist{Mu: 16.8, Sigma: 1.0, Min: 1e6, Max: 60e9}), // inference-scoped
				withWeight(0.40, rng.ParetoDist{Xm: 60e9, Alpha: 0.9, Max: 86400e9}),           // model weights
			)},
		}},
		MallocFraction: 0.088,
		MeanAllocGapNs: 4800,
		Threads:        ThreadDynamics{Base: 14, Amplitude: 6, PeriodNs: 3 * Hour, Jitter: 0.2, SpikeProb: 0.04, SpikeBoost: 8},
		CPUSet:         28,
		FleetWeight:    0,
		PreloadBytes:   512 << 20,
	}
}

// SPECLike models a SPEC CPU2006-style benchmark: allocation-inactive in
// steady state with a bimodal lifetime split (program-lifetime or <1 ms),
// the control the paper uses to argue SPEC is unsuitable for allocator
// studies (§3).
func SPECLike() Profile {
	return Profile{
		Name: "spec-cpu2006",
		SizeDist: rng.NewMixture(
			withWeight(0.7, rng.LogNormalDist{Mu: 5.0, Sigma: 1.5, Min: 8, Max: 64 << 10}),
			withWeight(0.3, rng.LogNormalDist{Mu: 13.0, Sigma: 1.5, Min: 64 << 10, Max: 256 << 20}),
		),
		Lifetime: LifetimeModel{Bands: []LifetimeBand{
			{MaxSize: 1 << 62, Dist: rng.NewMixture(
				withWeight(0.45, rng.LogNormalDist{Mu: 10.5, Sigma: 1.2, Min: 1e3, Max: 1e6}), // < 1 ms
				withWeight(0.55, rng.Constant(30*86400e9)),                                    // program lifetime
			)},
		}},
		MallocFraction: 0.004,
		MeanAllocGapNs: 60000,
		Threads:        ThreadDynamics{Base: 1, Amplitude: 0, PeriodNs: Hour, Jitter: 0, SpikeProb: 0, SpikeBoost: 0},
		CPUSet:         1,
		FleetWeight:    0,
		PreloadBytes:   1024 << 20,
	}
}

// ProductionProfiles returns the five §2.3 production workloads.
func ProductionProfiles() []Profile {
	return []Profile{Spanner(), Monarch(), Bigtable(), F1Query(), Disk()}
}

// BenchmarkProfiles returns the four §2.3 dedicated-server benchmarks.
func BenchmarkProfiles() []Profile {
	return []Profile{Redis(), DataPipeline(), ImageProcessing(), Tensorflow()}
}

// AllProfiles returns fleet + production + benchmarks + SPEC.
func AllProfiles() []Profile {
	out := []Profile{Fleet()}
	out = append(out, ProductionProfiles()...)
	out = append(out, BenchmarkProfiles()...)
	out = append(out, SPECLike())
	return out
}

// ByName looks up a profile.
func ByName(name string) (Profile, bool) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
