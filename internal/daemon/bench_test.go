package daemon

import (
	"sort"
	"testing"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/gwp"
)

func benchConfig(seed uint64, observe bool) Config {
	cfg := DefaultConfig(seed)
	cfg.Machines = 16
	cfg.SampleFraction = 0.5
	cfg.AllocConfig = core.OptimizedConfig()
	cfg.Design = "optimized"
	cfg.TickNs = 1_000_000
	cfg.DiurnalPeriodNs = 8_000_000
	cfg.Workers = 1 // single-threaded: measure per-tick work, not scheduling
	cfg.Observe = observe
	cfg.HeapProfile = observe
	return cfg
}

func benchTicks(b *testing.B, observe bool) {
	d, err := New(benchConfig(1, observe))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	// Warm the fleet past first-tick preload costs and through two full
	// diurnal periods, so the measured ticks see steady state (first-
	// crest heap peaks trigger full heap-profile condenses that never
	// recur once the high-water mark is established).
	for i := 0; i < 16; i++ {
		if err := d.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
}

// BenchmarkDaemonTick measures a full observed tick: machine advance,
// sketch/ring reduce, watchdog diff, publish.
func BenchmarkDaemonTick(b *testing.B) { benchTicks(b, true) }

// BenchmarkDaemonTickBare is the telemetry-off tick for manual A/B
// against BenchmarkDaemonTick. The overhead gate does not compare the
// two benchmarks — see BenchmarkDaemonObserveOverhead.
func BenchmarkDaemonTickBare(b *testing.B) { benchTicks(b, false) }

// gwpBenchConfig is the observed daemon with continuous profiling on:
// the production cadence (16-tick windows, ~1% sample floored at one
// machine) against a throwaway warehouse.
func gwpBenchConfig(b *testing.B, seed uint64) Config {
	cfg := benchConfig(seed, true)
	cfg.GWP.Enabled = true
	cfg.GWP.Dir = b.TempDir()
	cfg.GWP.Retention = gwp.Retention{RawRetain: 16, RawPerHourly: 4, HourlyRetain: 8, HourlyPerDaily: 4, DailyRetain: 8}
	return cfg
}

// BenchmarkDaemonTickGwp measures a full observed tick with continuous
// fleet profiling on: every machine carries the sparse heap profiler,
// and every 16th tick captures, encodes and appends a warehouse window.
func BenchmarkDaemonTickGwp(b *testing.B) {
	d, err := New(gwpBenchConfig(b, 1))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 16; i++ {
		if err := d.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
}

// BenchmarkDaemonGwpOverhead measures the continuous-profiling overhead
// the way BenchmarkDaemonObserveOverhead measures the observability
// overhead: an observed daemon and an observed+gwp daemon advance
// alternately within the same timed loop (shared load windows, drift
// cancels), blocks of 16 tick pairs with the arm order swapped pair by
// pair, trimmed-mean quotient over blocks. Blocks are exactly one
// collection cadence (GWP.CollectEveryTicks) wide so every block
// carries one capture+append: uniform blocks keep the trim ejecting
// genuine noise (GC cycles, preemptions) instead of systematically
// ejecting the blocks the collection tick landed in.
// scripts/verify.sh gates the on/gwp metric at >= 0.90: continuous
// profiling must cost under 10% per observed tick. (The floor is
// looser than DaemonObserveOverhead's 0.95 because the collection-tick
// marginal is concentrated in one tick per 16-pair block, so the
// quotient inherits several points of run-to-run swing from
// process-level state — heap layout, CPU placement — that the
// within-run trim cannot eject.)
func BenchmarkDaemonGwpOverhead(b *testing.B) {
	withGwp, err := New(gwpBenchConfig(b, 1))
	if err != nil {
		b.Fatal(err)
	}
	defer withGwp.Close()
	on, err := New(benchConfig(1, true))
	if err != nil {
		b.Fatal(err)
	}
	defer on.Close()
	for i := 0; i < 16; i++ {
		if err := withGwp.Tick(); err != nil {
			b.Fatal(err)
		}
		if err := on.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	tickTimed := func(d *Daemon) time.Duration {
		t0 := time.Now()
		if err := d.Tick(); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tGwp, tOn time.Duration
		for k := 0; k < 16; k++ {
			if k%2 == 0 {
				tGwp += tickTimed(withGwp)
				tOn += tickTimed(on)
			} else {
				tOn += tickTimed(on)
				tGwp += tickTimed(withGwp)
			}
		}
		ratios = append(ratios, tOn.Seconds()/tGwp.Seconds())
	}
	b.StopTimer()
	sort.Float64s(ratios)
	trim := len(ratios) / 6
	var sum float64
	kept := ratios[trim : len(ratios)-trim]
	for _, r := range kept {
		sum += r
	}
	b.ReportMetric(sum/float64(len(kept)), "on/gwp")
}

// BenchmarkDaemonObserveOverhead measures the observability overhead
// directly: an observed and a telemetry-off daemon advance alternately
// within the same timed loop, so both arms share every load window and
// machine-speed drift cancels out of the quotient. (Two sequential
// benchmarks can't measure this on a shared machine: ~25 ms ticks
// drift with neighbor load far more than the effect being measured.)
//
// One iteration is a block of 8 tick pairs — wide enough (~200 ms)
// that per-block timing jitter stays small relative to the quotient —
// with the arm order swapped pair by pair to cancel
// which-arm-runs-first cache effects. The reported off/on metric
// (telemetry-off time over observed time) is the trimmed mean over
// blocks: trimming ejects the blocks a GC cycle or a scheduler
// preemption landed in, which would otherwise swing the quotient by
// several points. scripts/verify.sh gates the metric at >= 0.95:
// steady-state observability must cost under 5% per tick. Deep-view
// renders are demand-driven (see introspectEveryTicks) and
// attributed to scraping, not to the ambient per-tick budget.
func BenchmarkDaemonObserveOverhead(b *testing.B) {
	on, err := New(benchConfig(1, true))
	if err != nil {
		b.Fatal(err)
	}
	defer on.Close()
	off, err := New(benchConfig(1, false))
	if err != nil {
		b.Fatal(err)
	}
	defer off.Close()
	for i := 0; i < 16; i++ {
		if err := on.Tick(); err != nil {
			b.Fatal(err)
		}
		if err := off.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	tickTimed := func(d *Daemon) time.Duration {
		t0 := time.Now()
		if err := d.Tick(); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tOn, tOff time.Duration
		for k := 0; k < 8; k++ {
			if k%2 == 0 {
				tOn += tickTimed(on)
				tOff += tickTimed(off)
			} else {
				tOff += tickTimed(off)
				tOn += tickTimed(on)
			}
		}
		ratios = append(ratios, tOff.Seconds()/tOn.Seconds())
	}
	b.StopTimer()
	sort.Float64s(ratios)
	trim := len(ratios) / 6
	var sum float64
	kept := ratios[trim : len(ratios)-trim]
	for _, r := range kept {
		sum += r
	}
	b.ReportMetric(sum/float64(len(kept)), "off/on")
}

// BenchmarkDaemonCheckpoint measures one full checkpoint — every
// machine blob and the manifest, encoded and written — of a warmed
// DefaultConfig daemon (16 enrolled machines, gwp on, one worker). The
// untimed first checkpoint sizes the reused encoder; SetBytes reports
// the checkpoint's size, so -benchmem shows allocation per byte written.
func BenchmarkDaemonCheckpoint(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Workers = 1
	cfg.GWP.Enabled = true
	cfg.GWP.Dir = b.TempDir()
	cfg.CheckpointDir = b.TempDir()
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 16; i++ {
		if err := d.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(d.lastCheckpointBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
