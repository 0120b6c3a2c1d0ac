package fleet

import (
	"runtime"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/workload"
)

// machineRunBytesPerMalloc runs one enrolled machine of the tracked
// sweep (a disk server, the third of every 25th of 400, with the
// largest heap of the first three) for 100 ms of virtual time,
// recording into a warmed tape as an A/B control arm does, and returns
// the Go heap bytes the run allocated per simulated malloc.
func machineRunBytesPerMalloc(t testing.TB) float64 {
	m := New(400, 1).Machines[50]
	opts := workload.DefaultOptions(m.Seed)
	opts.Duration = 100 * workload.Millisecond
	opts.Record = new(workload.Tape)
	// Warm the tape's columns and the runtime's size classes.
	RunMachineOpts(m, core.BaselineConfig(), opts)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rm := RunMachineOpts(m, core.BaselineConfig(), opts)
	runtime.ReadMemStats(&after)
	mallocs := rm.Result.Stats.Mallocs
	if mallocs == 0 {
		t.Fatal("the run made no mallocs")
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(mallocs)
}

// TestMachineRunAllocatesLittle gates the event loop's Go allocation.
// before is what this run allocated per simulated malloc while each
// span was a heap object and each death bucket a slice grown by append.
// With spans, the page map and the death wheel in arenas it measures
// 27.7–28.3 B (0.38×); the gate leaves room for that spread, not for a
// structure that allocates per object again. What remains grows with
// the heap: the page map (5 B per mapped page), the pageheap's placement
// map, the spans and the wheel's live objects.
func TestMachineRunAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("100 ms machine run")
	}
	const before, gate = 73.0, 0.45
	got := machineRunBytesPerMalloc(t)
	t.Logf("%.1f Go bytes per simulated malloc (%.2fx the per-object layout's %.1f)", got, got/before, before)
	if got > gate*before {
		t.Fatalf("machine run allocates %.1f Go bytes per simulated malloc, want at most %.1f (%.2fx %.1f)",
			got, gate*before, gate, before)
	}
}

// BenchmarkMachineRun is the perfbench fleet_ab unit's shape in one
// package: the tracked sweep's 16 enrolled machines (every 25th of 400),
// one ABTestErr call per machine, 100 ms baseline and optimized arms,
// one worker, the optimized arm replaying the baseline's tape. Unlike
// BenchmarkFleetAB's 10 ms arms it is not dominated by preload.
func BenchmarkMachineRun(b *testing.B) {
	f := New(400, 1)
	opts := DefaultABOptions()
	opts.SampleFraction = 1
	opts.MinMachines = 1
	opts.DurationNs = 100 * workload.Millisecond
	opts.Workers = 1
	opts.ControlDesign = policy.Baseline().String()
	opts.ExperimentDesign = policy.Optimized().String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < len(f.Machines); m += 25 {
			one := &Fleet{Machines: f.Machines[m : m+1]}
			if _, err := one.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
