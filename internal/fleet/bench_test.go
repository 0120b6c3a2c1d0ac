package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// BenchmarkHotLoop is the allocator hot path in isolation: a tight
// malloc/free loop over a few sizes and vCPUs with no workload driver,
// no telemetry, and no fleet machinery. It is the most sensitive probe
// of the monomorphized fast path (per-cpu hit -> size table -> cached
// domain) and the third benchmark scripts/verify.sh gates on.
func BenchmarkHotLoop(b *testing.B) {
	a := core.New(core.OptimizedConfig(), topology.New(topology.Default()))
	sizes := []int{16, 64, 256, 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size := sizes[i&3]
		vcpu := i & 7
		addr, _ := a.Malloc(size, vcpu)
		a.Free(addr, size, vcpu)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkFleetAB sweeps the worker count over the fleet A/B engine.
// The per-iteration work is fixed (same machines, same virtual
// duration), so ns/op across sub-benchmarks is the parallel speedup;
// machines/s is the headline scheduling metric, which cmd/benchgate
// gates against BENCH_fleet.json's bench_smoke block.
func BenchmarkFleetAB(b *testing.B) {
	js := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		js = append(js, n)
	}
	f := New(200, 1)
	for _, j := range js {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			opts := DefaultABOptions()
			opts.MinMachines = 8
			opts.DurationNs = 10 * workload.Millisecond
			opts.Workers = j
			var machines int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
				if res.Fleet.Machines == 0 {
					b.Fatal("no machines enrolled")
				}
				machines = res.Fleet.Machines
			}
			// Two runs (control + experiment) per enrolled machine.
			b.ReportMetric(float64(2*machines*b.N)/b.Elapsed().Seconds(), "machines/s")
		})
	}
}

// benchTelemetry runs the A/B engine with the given telemetry config so
// the Disabled/Enabled pair below measures the instrumentation overhead:
// Disabled is the nil-sink path (one branch per event site) and must stay
// within noise of the pre-telemetry BenchmarkFleetAB.
func benchTelemetry(b *testing.B, cfg telemetry.Config) {
	f := New(200, 1)
	opts := DefaultABOptions()
	opts.MinMachines = 8
	opts.DurationNs = 10 * workload.Millisecond
	opts.Workers = 1
	opts.Telemetry = cfg
	var machines int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
		if res.Fleet.Machines == 0 {
			b.Fatal("no machines enrolled")
		}
		machines = res.Fleet.Machines
	}
	b.ReportMetric(float64(2*machines*b.N)/b.Elapsed().Seconds(), "machines/s")
}

func BenchmarkTelemetryDisabled(b *testing.B) {
	benchTelemetry(b, telemetry.Config{})
}

func BenchmarkTelemetryEnabled(b *testing.B) {
	benchTelemetry(b, telemetry.Config{Enabled: true, TraceCapacity: 4096})
}
