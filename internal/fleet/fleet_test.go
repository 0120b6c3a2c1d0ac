package fleet

import (
	"math"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/transfercache"
	"wsmalloc/internal/workload"
)

func TestBinaryCatalogFig3Shape(t *testing.T) {
	c := NewBinaryCatalog(2000, 1)
	top50Cycles := c.TopCycleShare(50)
	top50Memory := c.TopMemoryShare(50)
	// Fig. 3: top 50 binaries cover ~50% of malloc cycles, ~65% of
	// allocated memory.
	if top50Cycles < 0.42 || top50Cycles > 0.60 {
		t.Errorf("top-50 cycle share %.3f, want ~0.50", top50Cycles)
	}
	if top50Memory < 0.55 || top50Memory > 0.75 {
		t.Errorf("top-50 memory share %.3f, want ~0.65", top50Memory)
	}
	if c.TopCycleShare(2000) < 0.999 {
		t.Error("full catalog share must be 1")
	}
	cdf := c.CDF(c.CycleShare, 50)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestFleetComposition(t *testing.T) {
	f := New(500, 7)
	if len(f.Machines) != 500 {
		t.Fatalf("machines = %d", len(f.Machines))
	}
	apps := map[string]int{}
	plats := map[string]int{}
	for _, m := range f.Machines {
		apps[m.App.Name]++
		plats[m.Platform.Name]++
	}
	if len(apps) != 5 {
		t.Fatalf("expected all 5 production apps, got %v", apps)
	}
	if len(plats) < 4 {
		t.Fatalf("expected >=4 platform generations, got %v", plats)
	}
}

func TestRunMachineProducesTelemetry(t *testing.T) {
	f := New(10, 3)
	m := f.Machines[0]
	rm := RunMachine(m, core.BaselineConfig(), 20*workload.Millisecond)
	if rm.Result.Ops == 0 {
		t.Fatal("no operations")
	}
	if rm.AvgHeapBytes <= 0 {
		t.Fatal("no heap average")
	}
	if rm.Coverage <= 0 || rm.Coverage > 1 {
		t.Fatalf("coverage = %v", rm.Coverage)
	}
	if rm.CacheBytes <= 0 {
		t.Fatal("no cached bytes")
	}
}

func TestRunMachineDeterministic(t *testing.T) {
	f := New(4, 11)
	m := f.Machines[1]
	a := RunMachine(m, core.OptimizedConfig(), 10*workload.Millisecond)
	b := RunMachine(m, core.OptimizedConfig(), 10*workload.Millisecond)
	if a.Result.Ops != b.Result.Ops || a.AvgHeapBytes != b.AvgHeapBytes {
		t.Fatal("machine runs not deterministic")
	}
}

func TestABTestProducesRows(t *testing.T) {
	f := New(60, 21)
	opts := DefaultABOptions()
	opts.MinMachines = 6
	opts.DurationNs = 15 * workload.Millisecond
	res := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
	if res.Fleet.Machines != 6 {
		t.Fatalf("fleet row machines = %d", res.Fleet.Machines)
	}
	if len(res.PerApp) == 0 {
		t.Fatal("no per-app rows")
	}
	total := 0
	for _, row := range res.PerApp {
		total += row.Machines
		if row.App == "" {
			t.Fatal("unnamed row")
		}
	}
	if total != res.Fleet.Machines {
		t.Fatalf("per-app machines %d != fleet %d", total, res.Fleet.Machines)
	}
	if s := res.Fleet.String(); len(s) == 0 {
		t.Fatal("row renders empty")
	}
}

func TestABIdenticalConfigsNearZero(t *testing.T) {
	f := New(30, 31)
	opts := DefaultABOptions()
	opts.MinMachines = 4
	opts.DurationNs = 10 * workload.Millisecond
	res := f.ABTest(core.BaselineConfig(), core.BaselineConfig(), opts)
	if math.Abs(res.Fleet.ThroughputPct) > 1e-9 || math.Abs(res.Fleet.MemoryPct) > 1e-9 {
		t.Fatalf("identical configs must show zero delta: %+v", res.Fleet)
	}
}

// TestABCoverageIsArmMean pins ABResult's per-arm coverage to the mean,
// in enrolment order, of each enrolled machine's own run: what a caller
// reading coverage would otherwise rerun both arms to get.
func TestABCoverageIsArmMean(t *testing.T) {
	f := New(30, 33)
	opts := DefaultABOptions()
	opts.MinMachines = 3
	opts.DurationNs = 10 * workload.Millisecond
	opts.TimeWarpGamma = 0.15
	lt, err := core.ConfigForDesign(policy.DesignPoint{Filler: pageheap.FillerCapacity})
	if err != nil {
		t.Fatal(err)
	}
	res := f.ABTest(core.BaselineConfig(), lt, opts)
	var wantC, wantE float64
	idx := sampleIndices(len(f.Machines), opts)
	for _, i := range idx {
		m := f.Machines[i]
		wopts := workload.DefaultOptions(m.Seed)
		wopts.Duration = opts.DurationNs
		wopts.TimeWarpGamma = opts.TimeWarpGamma
		wantC += RunMachineOpts(m, core.BaselineConfig(), wopts).Coverage
		wantE += RunMachineOpts(m, lt, wopts).Coverage
	}
	wantC /= float64(len(idx))
	wantE /= float64(len(idx))
	if res.CoverageControl != wantC || res.CoverageExperiment != wantE {
		t.Fatalf("coverage control %v experiment %v, want %v %v", res.CoverageControl, res.CoverageExperiment, wantC, wantE)
	}
	if wantC <= 0 {
		t.Fatalf("coverage %v: nothing measured", wantC)
	}
}

func TestABNUCAImprovesLocality(t *testing.T) {
	f := New(40, 41)
	opts := DefaultABOptions()
	opts.MinMachines = 8
	opts.DurationNs = 25 * workload.Millisecond
	nuca, err := core.ConfigForDesign(policy.DesignPoint{TC: transfercache.NUCA})
	if err != nil {
		t.Fatal(err)
	}
	res := f.ABTest(core.BaselineConfig(), nuca, opts)
	if res.Fleet.LLCAfter >= res.Fleet.LLCBefore {
		t.Fatalf("NUCA should cut LLC misses: %.3f -> %.3f",
			res.Fleet.LLCBefore, res.Fleet.LLCAfter)
	}
	if res.Fleet.ThroughputPct <= 0 {
		t.Fatalf("NUCA throughput delta %v, want positive", res.Fleet.ThroughputPct)
	}
}
