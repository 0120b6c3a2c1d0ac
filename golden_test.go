package wsmalloc_test

// Golden bit-identity regression suite: the canonical exports
// (Prometheus metricsz, heapz, pageheapz, designspace CSV) for 3 seeds x
// 2 design points, pinned in testdata/golden/ for the current sampling
// epoch. TestHotPathGoldenEquivalence fails if a single byte of any
// export changes, so a hot-path change must keep every byte; a new
// sampling epoch re-cuts all goldens at once through the golden
// package's -update switch:
//
//	go test . ./internal/fleet -run Golden -update

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wsmalloc"
	"wsmalloc/internal/golden"
)

var goldenSeeds = []uint64{1, 2, 3}

// goldenDesigns are the two design points the suite pins down: the
// all-legacy baseline and the paper's full redesign.
func goldenDesigns(t testing.TB) []struct {
	name   string
	point  wsmalloc.DesignPoint
	config wsmalloc.Config
} {
	baseCfg, err := wsmalloc.ConfigForDesign(wsmalloc.BaselineDesign())
	if err != nil {
		t.Fatalf("baseline config: %v", err)
	}
	optCfg, err := wsmalloc.ConfigForDesign(wsmalloc.OptimizedDesign())
	if err != nil {
		t.Fatalf("optimized config: %v", err)
	}
	return []struct {
		name   string
		point  wsmalloc.DesignPoint
		config wsmalloc.Config
	}{
		{"baseline", wsmalloc.BaselineDesign(), baseCfg},
		{"optimized", wsmalloc.OptimizedDesign(), optCfg},
	}
}

const (
	goldenFleetMachines   = 48
	goldenFleetDurationNs = 12_000_000 // 12 ms virtual per machine run
	goldenMachineDuration = 20_000_000 // 20 ms single-machine run
)

// fleetExports runs a small telemetry+heapprof-instrumented fleet A/B
// (control = baseline, experiment = the design under test) and renders
// the two canonical export documents.
func fleetExports(t testing.TB, seed uint64, control, experiment wsmalloc.Config,
	controlDesign, experimentDesign string) (prom, heapz []byte) {
	t.Helper()
	f := wsmalloc.NewFleet(goldenFleetMachines, seed)
	opts := wsmalloc.DefaultABOptions()
	opts.SampleFraction = 0.08
	opts.MinMachines = 3
	opts.DurationNs = goldenFleetDurationNs
	opts.Workers = 1
	opts.Telemetry = wsmalloc.DefaultTelemetryConfig()
	opts.ControlDesign = controlDesign
	opts.ExperimentDesign = experimentDesign
	opts.HeapProfile = wsmalloc.DefaultHeapProfileConfig()
	opts.HeapProfile.Seed = seed

	res := f.ABTest(control, experiment, opts)
	if res.Telemetry == nil || res.HeapProfiles == nil {
		t.Fatal("fleet A/B returned no telemetry or heap profiles")
	}

	var promBuf bytes.Buffer
	if err := wsmalloc.WriteTelemetryPrometheus(&promBuf, res.Telemetry.Snapshots(opts.DurationNs)...); err != nil {
		t.Fatalf("prometheus export: %v", err)
	}
	var heapBuf bytes.Buffer
	profiles := append(append([]wsmalloc.HeapProfile{}, res.HeapProfiles.Control...),
		res.HeapProfiles.Experiment...)
	if err := wsmalloc.WriteHeapProfiles(&heapBuf, profiles...); err != nil {
		t.Fatalf("heapz export: %v", err)
	}
	return promBuf.Bytes(), heapBuf.Bytes()
}

// pageheapzExport runs one Monarch machine on the given config and
// renders the /pageheapz fragmentation document.
func pageheapzExport(t testing.TB, seed uint64, cfg wsmalloc.Config) []byte {
	t.Helper()
	alloc := wsmalloc.NewAllocator(cfg, wsmalloc.DefaultPlatform())
	opts := wsmalloc.DefaultRunOptions(seed)
	opts.Duration = goldenMachineDuration
	res := wsmalloc.RunWorkloadOn(wsmalloc.Monarch(), alloc, opts)
	if res.Ops == 0 {
		t.Fatal("workload run produced no operations")
	}
	var buf bytes.Buffer
	if err := wsmalloc.WritePageHeapZ(&buf, alloc.PageHeapZ()); err != nil {
		t.Fatalf("pageheapz export: %v", err)
	}
	return buf.Bytes()
}

// designspaceExport sweeps both golden design points through the
// designspace experiment at smoke scale and returns the CSV leaderboard.
func designspaceExport(t testing.TB, seed uint64) []byte {
	t.Helper()
	base := filepath.Join(t.TempDir(), "ds")
	wsmalloc.SetDesignSpace([]wsmalloc.DesignPoint{
		wsmalloc.BaselineDesign(), wsmalloc.OptimizedDesign(),
	}, base)
	defer wsmalloc.SetDesignSpace(nil, "")
	if _, err := wsmalloc.RunExperiments([]string{"designspace"}, seed, wsmalloc.ScaleSmoke); err != nil {
		t.Fatalf("designspace run: %v", err)
	}
	csv, err := os.ReadFile(base + ".csv")
	if err != nil {
		t.Fatalf("designspace CSV: %v", err)
	}
	return csv
}

// checkGolden compares got against the committed golden of that name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden.Check(t, filepath.Join("testdata", "golden", name), got)
}

// TestHotPathGoldenEquivalence is the bit-identity gate: every canonical
// export must match the current epoch's goldens byte for byte.
func TestHotPathGoldenEquivalence(t *testing.T) {
	designs := goldenDesigns(t)
	baseline := designs[0]
	for _, seed := range goldenSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, d := range designs {
				d := d
				t.Run(d.name, func(t *testing.T) {
					prom, heapz := fleetExports(t, seed, baseline.config, d.config,
						baseline.point.String(), d.point.String())
					checkGolden(t, fmt.Sprintf("seed%d_%s.prom", seed, d.name), prom)
					checkGolden(t, fmt.Sprintf("seed%d_%s.heapz", seed, d.name), heapz)
					checkGolden(t, fmt.Sprintf("seed%d_%s.pageheapz", seed, d.name),
						pageheapzExport(t, seed, d.config))
				})
			}
			t.Run("designspace", func(t *testing.T) {
				checkGolden(t, fmt.Sprintf("seed%d_designspace.csv", seed),
					designspaceExport(t, seed))
			})
		})
	}
}
