package experiments

import (
	"fmt"

	"wsmalloc/internal/centralfreelist"
	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/percpu"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// AblationL sweeps the number of occupancy-indexed lists L in the central
// free list; the paper states L=8 suffices to differentiate spans.
func AblationL(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "ablation-l",
		Title:      "span prioritization: sweep of list count L",
		PaperClaim: "L=8 lists are sufficient to differentiate spans (§4.3)",
	}
	dur := scale.duration(250 * workload.Millisecond)
	m := fleet.Machine{ID: 0, Platform: topology.Default(), App: workload.Monarch(), Seed: seed}
	ls := []int{1, 2, 4, 8, 16}
	lines := make([]string, len(ls))
	fanOut(len(ls), func(i int) error {
		cfg := designConfig(policy.DesignPoint{CFL: centralfreelist.FullestFirst})
		cfg.CFL.NumLists = ls[i]
		rm := fleet.RunMachine(m, cfg, dur)
		st := rm.Result.Stats
		lines[i] = fmt.Sprintf("L=%-3d CFL frag %8.2f MiB   spans %6d   avg heap %7.1f MiB",
			ls[i], float64(st.Frag.CentralFreeList)/(1<<20), st.CFLSpans,
			float64(rm.AvgHeapBytes)/(1<<20))
		return nil
	})
	r.Lines = append(r.Lines, lines...)
	return r
}

// AblationC sweeps the lifetime capacity threshold C that splits spans
// between the short- and long-lived hugepage sets; the paper picks C=16.
func AblationC(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "ablation-c",
		Title:      "lifetime-aware filler: sweep of capacity threshold C",
		PaperClaim: "C=16 is an acceptable threshold for separating span allocations (§4.4)",
	}
	dur := scale.duration(250 * workload.Millisecond)
	m := fleet.Machine{ID: 0, Platform: topology.Default(), App: workload.F1Query(), Seed: seed}
	wopts := workload.DefaultOptions(m.Seed)
	wopts.Duration = dur
	wopts.TimeWarpGamma = 0.15
	cs := []int{2, 4, 8, 16, 32, 64}
	lines := make([]string, len(cs))
	fanOut(len(cs), func(i int) error {
		cfg := designConfig(policy.DesignPoint{Filler: pageheap.FillerCapacity})
		cfg.CFL.SpanLifetimeThreshold = cs[i]
		rm := fleet.RunMachineOpts(m, cfg, wopts)
		lines[i] = fmt.Sprintf("C=%-3d hugepage coverage %6.2f%%   avg heap %7.1f MiB",
			cs[i], rm.Coverage*100, float64(rm.AvgHeapBytes)/(1<<20))
		return nil
	})
	r.Lines = append(r.Lines, lines...)
	return r
}

// AblationCapacity sweeps the per-CPU cache capacity with and without
// dynamic resizing; the paper halves 3 MiB to 1.5 MiB once resizing is on.
func AblationCapacity(seed uint64, scale Scale) Report {
	r := Report{
		ID:         "ablation-capacity",
		Title:      "per-CPU cache capacity x dynamic resizing",
		PaperClaim: "with dynamic resizing, halving the 3 MiB default costs no performance and saves memory (§4.1)",
	}
	dur := scale.duration(250 * workload.Millisecond)
	m := fleet.Machine{ID: 0, Platform: topology.Default(), App: workload.Monarch(), Seed: seed}
	type point struct {
		dynamic bool
		capMiB  float64
	}
	var pts []point
	for _, dynamic := range []bool{false, true} {
		for _, capMiB := range []float64{0.75, 1.5, 3.0} {
			pts = append(pts, point{dynamic, capMiB})
		}
	}
	lines := make([]string, len(pts))
	fanOut(len(pts), func(i int) error {
		cfg := core.BaselineConfig()
		if pts[i].dynamic {
			cfg.PerCPU = percpu.ConfigFor(percpu.Hetero)
		}
		cfg.PerCPU.CapacityBytes = int64(pts[i].capMiB * (1 << 20))
		rm := fleet.RunMachine(m, cfg, dur)
		st := rm.Result.Stats
		missRate := 0.0
		ops := st.FrontEnd.AllocHits + st.FrontEnd.AllocMisses
		if ops > 0 {
			missRate = float64(st.FrontEnd.AllocMisses) / float64(ops) * 100
		}
		lines[i] = fmt.Sprintf("dynamic=%-5v cap=%.2fMiB  front-end bytes %7.2f MiB  miss rate %5.2f%%  avg heap %7.1f MiB",
			pts[i].dynamic, pts[i].capMiB, float64(st.FrontEnd.CachedBytes)/(1<<20), missRate,
			float64(rm.AvgHeapBytes)/(1<<20))
		return nil
	})
	r.Lines = append(r.Lines, lines...)
	return r
}
