package fleet_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/golden"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// equivExports renders every observable export of a fixed-seed fleet run
// under cfg (experiment arm, against the stock baseline control) into one
// byte stream: the A/B fleet rows, the merged telemetry registry in both
// Prometheus and mallocz form, the merged heapz/allocz/peakheapz text
// views, and a single-machine pageheapz fragmentation report. Any
// behavioral drift in any tier shows up as a byte diff.
func equivExports(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	var buf bytes.Buffer

	f := fleet.New(32, 0x5eed)
	opts := fleet.ABOptions{
		SampleFraction: 0.1,
		MinMachines:    4,
		DurationNs:     20 * workload.Millisecond,
		TimeWarpGamma:  0.15,
		Workers:        2,
		Telemetry:      telemetry.DefaultConfig(),
		HeapProfile:    heapprof.Config{Enabled: true, Seed: 0x5eed},
	}
	res, err := f.ABTestErr(core.BaselineConfig(), cfg, opts)
	if err != nil {
		t.Fatalf("ABTestErr: %v", err)
	}
	fmt.Fprintf(&buf, "fleet row: %s\n", res.Fleet)
	for _, r := range res.PerApp {
		fmt.Fprintf(&buf, "app row: %s\n", r)
	}
	snaps := res.Telemetry.Snapshots(opts.DurationNs)
	if err := telemetry.WritePrometheus(&buf, snaps...); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := telemetry.WriteMallocz(&buf, snaps...); err != nil {
		t.Fatalf("WriteMallocz: %v", err)
	}
	profiles := append(append([]heapprof.Profile(nil), res.HeapProfiles.Control...),
		res.HeapProfiles.Experiment...)
	if err := heapprof.WriteText(&buf, profiles...); err != nil {
		t.Fatalf("WriteText: %v", err)
	}

	// One standalone machine run for the pageheapz view, which the fleet
	// reducer does not aggregate.
	m := f.Machines[1]
	alloc := core.New(cfg, topology.New(m.Platform))
	wopts := workload.DefaultOptions(m.Seed)
	wopts.Duration = 20 * workload.Millisecond
	workload.Run(m.App, alloc, wopts)
	if err := core.WritePageHeapZ(&buf, alloc.PageHeapZ()); err != nil {
		t.Fatalf("WritePageHeapZ: %v", err)
	}
	return buf.Bytes()
}

// TestDesignEquivalenceGolden pins the full export surface of the
// baseline and optimized configurations, as built from the policy
// registry, to golden files for the current sampling epoch: any
// behavioral drift in any tier, the policy encoding or the workload
// stream shows up as a byte diff. Re-cut only for an intentional change,
// together with every other golden, through the golden package's
// -update switch (go test . ./internal/fleet -run Golden -update).
func TestDesignEquivalenceGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"baseline", core.BaselineConfig()},
		{"optimized", core.OptimizedConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			golden.Check(t, filepath.Join("testdata", "equiv_"+tc.name+".golden"), equivExports(t, tc.cfg))
		})
	}
}
