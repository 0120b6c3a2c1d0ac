package wsmalloc_test

import (
	"reflect"
	"testing"

	"wsmalloc"
)

func TestFacadeAllocatorRoundTrip(t *testing.T) {
	alloc := wsmalloc.NewAllocator(wsmalloc.Optimized(), wsmalloc.DefaultPlatform())
	addr, cost := alloc.Malloc(128, 0)
	if cost <= 0 {
		t.Fatal("no cost")
	}
	alloc.Free(addr, 128, 0)
	st := alloc.Stats()
	if st.Mallocs != 1 || st.Frees != 1 {
		t.Fatalf("ops: %+v", st)
	}
}

func TestFacadeProfiles(t *testing.T) {
	if len(wsmalloc.AllProfiles()) < 10 {
		t.Fatal("missing profiles")
	}
	for _, name := range []string{"spanner", "monarch", "bigtable", "f1-query", "disk",
		"redis", "data-pipeline", "image-processing", "tensorflow", "spec-cpu2006", "fleet"} {
		if _, ok := wsmalloc.ProfileByName(name); !ok {
			t.Errorf("profile %s missing", name)
		}
	}
	if wsmalloc.Spanner().Name != "spanner" || wsmalloc.FleetMix().Name != "fleet" {
		t.Fatal("profile constructors broken")
	}
}

func TestFacadeRunWorkload(t *testing.T) {
	opts := wsmalloc.DefaultRunOptions(3)
	opts.Duration = 10_000_000
	res := wsmalloc.RunWorkloadOptions(wsmalloc.Monarch(), wsmalloc.Baseline(), opts)
	if res.Ops == 0 || res.Stats.HeapBytes == 0 {
		t.Fatalf("run produced nothing: %+v", res.Ops)
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	if len(wsmalloc.Experiments()) != 26 {
		t.Fatalf("registry size %d", len(wsmalloc.Experiments()))
	}
	r, ok := wsmalloc.Experiment("fig11")
	if !ok {
		t.Fatal("fig11 missing")
	}
	rep := r.Run(1, wsmalloc.ScaleSmoke)
	if len(rep.Lines) == 0 {
		t.Fatal("empty report")
	}
}

func TestFacadeFeatureToggles(t *testing.T) {
	base := wsmalloc.Baseline()
	for _, name := range []string{
		"heterogeneous-percpu-cache",
		"nuca-transfer-cache",
		"span-prioritization",
		"lifetime-aware-filler",
	} {
		if !wsmalloc.IsDesignShorthand(name) {
			t.Errorf("feature %s is not a design shorthand", name)
		}
		d, err := wsmalloc.ParseDesignPoint(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, err := wsmalloc.ConfigForDesign(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("feature %s leaves the baseline unchanged", name)
		}
	}
	if len(wsmalloc.Platforms()) != 5 {
		t.Fatal("platform catalog")
	}
}

func TestFacadeFleet(t *testing.T) {
	f := wsmalloc.NewFleet(20, 1)
	if len(f.Machines) != 20 {
		t.Fatal("fleet size")
	}
	opts := wsmalloc.DefaultABOptions()
	opts.MinMachines = 2
	opts.DurationNs = 10_000_000
	res := f.ABTest(wsmalloc.Baseline(), wsmalloc.Baseline(), opts)
	if res.Fleet.Machines != 2 {
		t.Fatalf("ab machines %d", res.Fleet.Machines)
	}
}
