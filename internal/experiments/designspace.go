package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/transfercache"
	"wsmalloc/internal/workload"
)

// DesignPointResult is one leaderboard row of a design-space sweep:
// the fleet A/B deltas of one design point against the baseline, plus
// allocator-internal metrics from a fixed single-machine run.
type DesignPointResult struct {
	// Design is the point's canonical string
	// ("percpu=hetero,tc=nuca,cfl=prio8,filler=capacity").
	Design string `json:"design"`
	// ThroughputPct / MemoryPct / CPIPct are the fleet A/B deltas vs
	// the baseline design (negative memory = savings).
	ThroughputPct float64 `json:"throughput_pct"`
	MemoryPct     float64 `json:"memory_pct"`
	CPIPct        float64 `json:"cpi_pct"`
	// FragMiB is total fragmentation (external + internal) at the end of
	// the reference machine run.
	FragMiB float64 `json:"frag_mib"`
	// HugepageCoveragePct is the time-averaged hugepage coverage of the
	// reference run.
	HugepageCoveragePct float64 `json:"hugepage_coverage_pct"`
	// AvgMallocNs is the cost-model time per malloc in the reference run
	// (the "malloc cycles" proxy).
	AvgMallocNs float64 `json:"avg_malloc_ns"`
}

// Design-space sweep parameters, backing the cmd/experiments -design /
// -design-out flags. Guarded by a mutex because runners may execute on
// pool goroutines.
var (
	dsMu     sync.Mutex
	dsPoints []policy.DesignPoint
	dsOut    string
)

// SetDesignSpace installs the points swept by the next "designspace"
// run (nil selects DefaultDesignGrid) and the output base path for the
// JSON/CSV leaderboard ("" writes no files).
func SetDesignSpace(points []policy.DesignPoint, outBase string) {
	dsMu.Lock()
	defer dsMu.Unlock()
	dsPoints = points
	dsOut = outBase
}

func designSpaceParams() ([]policy.DesignPoint, string) {
	dsMu.Lock()
	defer dsMu.Unlock()
	return dsPoints, dsOut
}

// DefaultDesignGrid is the standard sweep: the paper's full 2^4
// legacy-vs-redesign cross product, plus one point per post-paper
// policy layered onto the optimized design — every registered policy
// appears in at least one point.
func DefaultDesignGrid() []policy.DesignPoint {
	var pts []policy.DesignPoint
	for _, pc := range []percpu.Policy{percpu.Static, percpu.Hetero} {
		for _, tc := range []transfercache.Policy{transfercache.Central, transfercache.NUCA} {
			for _, cfl := range []centralfreelist.Policy{centralfreelist.Legacy, centralfreelist.FullestFirst} {
				for _, fl := range []pageheap.Policy{pageheap.FillerNone, pageheap.FillerCapacity} {
					pts = append(pts, policy.DesignPoint{PerCPU: pc, TC: tc, CFL: cfl, Filler: fl})
				}
			}
		}
	}
	ewma, pressure, bestfit, heapprof := policy.Optimized(), policy.Optimized(), policy.Optimized(), policy.Optimized()
	ewma.PerCPU = percpu.EWMA
	pressure.TC = transfercache.Pressure
	bestfit.CFL = centralfreelist.BestFit
	heapprof.Filler = pageheap.FillerHeapProf
	return append(pts, ewma, pressure, bestfit, heapprof)
}

// RegistryGrid is the exhaustive cross-product of every registered
// policy per tier (3^4 = 81 points with the stock registry) — the
// search space of the guided default sweep. Enum order per tier makes
// the enumeration deterministic.
func RegistryGrid() []policy.DesignPoint {
	n := func(tier string) int { return len(policy.Names(tier)) }
	var pts []policy.DesignPoint
	for pc := range percpu.Policy(n(policy.TierPerCPU)) {
		for tc := range transfercache.Policy(n(policy.TierTC)) {
			for cfl := range centralfreelist.Policy(n(policy.TierCFL)) {
				for fl := range pageheap.Policy(n(policy.TierFiller)) {
					pts = append(pts, policy.DesignPoint{PerCPU: pc, TC: tc, CFL: cfl, Filler: fl})
				}
			}
		}
	}
	return pts
}

// rankResults orders a leaderboard: biggest memory saving first,
// throughput gain breaking ties, design string as the total-order
// backstop.
func rankResults(results []DesignPointResult) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].MemoryPct != results[j].MemoryPct {
			return results[i].MemoryPct < results[j].MemoryPct
		}
		if results[i].ThroughputPct != results[j].ThroughputPct {
			return results[i].ThroughputPct > results[j].ThroughputPct
		}
		return results[i].Design < results[j].Design
	})
}

// measureRung runs one budget rung: every point's small paired fleet
// A/B against the baseline design at the given duration, plus (when
// withRef — the final full-budget rung) one fixed reference machine run
// for the allocator-internal leaderboard columns. Points fan out over
// the worker pool with index-addressed results, so each rung — and the
// ranked leaderboard built from it — is byte-identical at any -j.
func measureRung(points []policy.DesignPoint, seed uint64, dur int64, withRef bool) []DesignPointResult {
	f := fleet.New(48, seed)
	baseline := core.BaselineConfig()
	baselineDesign := policy.Baseline().String()
	refMachine := fleet.Machine{
		ID: 0, Platform: topology.Default(), App: workload.Monarch(), Seed: seed,
	}

	results := make([]DesignPointResult, len(points))
	fanOut(len(points), func(i int) error {
		d := points[i]
		cfg, err := core.ConfigForDesign(d)
		if err != nil {
			panic(err)
		}
		opts := fleet.ABOptions{
			SampleFraction:   0.1,
			MinMachines:      4,
			DurationNs:       dur,
			TimeWarpGamma:    0.15,
			Workers:          1, // points already fan out; keep each A/B sequential
			ControlDesign:    baselineDesign,
			ExperimentDesign: d.String(),
		}
		res, err := f.ABTestErr(baseline, cfg, opts)
		if err != nil {
			panic(err)
		}
		results[i] = DesignPointResult{
			Design:        d.String(),
			ThroughputPct: res.Fleet.ThroughputPct,
			MemoryPct:     res.Fleet.MemoryPct,
			CPIPct:        res.Fleet.CPIPct,
		}
		if withRef {
			rm := fleet.RunMachine(refMachine, cfg, dur)
			st := rm.Result.Stats
			avgMalloc := 0.0
			if st.Mallocs > 0 {
				avgMalloc = st.Time.Total() / float64(st.Mallocs)
			}
			results[i].FragMiB = float64(st.Frag.Total()) / (1 << 20)
			results[i].HugepageCoveragePct = rm.Coverage * 100
			results[i].AvgMallocNs = avgMalloc
		}
		return nil
	})
	rankResults(results)
	return results
}

// DesignSpace explores the allocator design space. With explicit
// points (SetDesignSpace / the -design flag) every point runs at full
// budget — the direct sweep. With no explicit points it runs a
// successive-halving guided search over the full registry grid: all
// 3^4 points race at 1/8 budget, the memory-first leaderboard keeps
// the top half, the budget doubles, and the surviving points repeat
// until the final rung runs at full budget and emits the leaderboard.
// Both modes fan points out over the worker pool with index-addressed
// results, so the exported JSON/CSV is byte-identical at any -j.
func DesignSpace(seed uint64, scale Scale) Report {
	points, outBase := designSpaceParams()
	dur := scale.duration(100 * workload.Millisecond)
	var r Report
	var results []DesignPointResult
	if len(points) > 0 {
		r = Report{
			ID:    "designspace",
			Title: fmt.Sprintf("design-space sweep over %d points", len(points)),
			PaperClaim: "the four redesigns compose: the optimized design point dominates " +
				"the 2^4 grid on memory at neutral-or-better throughput (§4.5)",
		}
		results = measureRung(points, seed, dur, true)
	} else {
		points = RegistryGrid()
		r = Report{
			ID:    "designspace",
			Title: fmt.Sprintf("successive-halving design search over the %d-point registry grid", len(points)),
			PaperClaim: "the four redesigns compose: the optimized design point dominates " +
				"the 2^4 grid on memory at neutral-or-better throughput (§4.5)",
		}
		// Successive halving: the rung budget starts at 1/8 of the full
		// duration and doubles as the field halves, so the search spends
		// most of its time on the most promising half of the space.
		budget := dur / 8
		if budget < workload.Millisecond {
			budget = workload.Millisecond
		}
		for rung := 1; budget < dur && len(points) > 2; rung++ {
			ranked := measureRung(points, seed, budget, false)
			keep := (len(ranked) + 1) / 2
			r.addf("rung %d: %d points at %.1fms budget, keeping top %d",
				rung, len(points), float64(budget)/1e6, keep)
			next := make([]policy.DesignPoint, 0, keep)
			for _, res := range ranked[:keep] {
				d, err := policy.Parse(res.Design)
				if err != nil {
					panic(err) // canonical strings always re-parse
				}
				next = append(next, d)
			}
			points = next
			budget *= 2
		}
		r.addf("final rung: %d points at full %.1fms budget", len(points), float64(dur)/1e6)
		results = measureRung(points, seed, dur, true)
	}

	for rank, p := range results {
		r.addf("#%-2d %-58s mem %+6.2f%%  thr %+6.2f%%  CPI %+6.2f%%  frag %7.2f MiB  hugepage %6.2f%%  malloc %6.1f ns",
			rank+1, p.Design, p.MemoryPct, p.ThroughputPct, p.CPIPct,
			p.FragMiB, p.HugepageCoveragePct, p.AvgMallocNs)
	}

	if outBase != "" {
		if err := writeDesignSpace(outBase, results); err != nil {
			r.Failed = true
			r.addf("export failed: %v", err)
		} else {
			r.addf("leaderboard written to %s.json and %s.csv", outBase, outBase)
		}
	}
	return r
}

// designSpaceDoc is the JSON leaderboard schema.
type designSpaceDoc struct {
	Points []DesignPointResult `json:"points"`
}

// writeDesignSpace exports the ranked leaderboard as BASE.json and
// BASE.csv. Formatting is fixed-precision so equal results are equal
// bytes.
func writeDesignSpace(base string, results []DesignPointResult) error {
	jf, err := os.Create(base + ".json")
	if err != nil {
		return err
	}
	err = telemetry.WriteJSON(jf, designSpaceDoc{Points: results})
	if cerr := jf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	cf, err := os.Create(base + ".csv")
	if err != nil {
		return err
	}
	cw := csv.NewWriter(cf)
	err = cw.Write([]string{"design", "throughput_pct", "memory_pct", "cpi_pct",
		"frag_mib", "hugepage_coverage_pct", "avg_malloc_ns"})
	for _, p := range results {
		if err != nil {
			break
		}
		err = cw.Write([]string{
			p.Design,
			strconv.FormatFloat(p.ThroughputPct, 'f', 6, 64),
			strconv.FormatFloat(p.MemoryPct, 'f', 6, 64),
			strconv.FormatFloat(p.CPIPct, 'f', 6, 64),
			strconv.FormatFloat(p.FragMiB, 'f', 6, 64),
			strconv.FormatFloat(p.HugepageCoveragePct, 'f', 6, 64),
			strconv.FormatFloat(p.AvgMallocNs, 'f', 6, 64),
		})
	}
	if err == nil {
		cw.Flush()
		err = cw.Error()
	}
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	return err
}
