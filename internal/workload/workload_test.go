package workload

import (
	"testing"

	"wsmalloc/internal/check"
	"wsmalloc/internal/core"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/stats"
	"wsmalloc/internal/topology"
)

func TestProfilesWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, p := range AllProfiles() {
		if p.Name == "" || names[p.Name] {
			t.Fatalf("bad or duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
		if p.MallocFraction <= 0 || p.MallocFraction > 0.2 {
			t.Errorf("%s: malloc fraction %v out of range", p.Name, p.MallocFraction)
		}
		if p.MeanAllocGapNs <= 0 || p.CPUSet < 1 || p.Threads.Base < 1 {
			t.Errorf("%s: bad rate/cpuset/threads", p.Name)
		}
		if len(p.Lifetime.Bands) == 0 {
			t.Errorf("%s: no lifetime bands", p.Name)
		}
	}
	if _, ok := ByName("spanner"); !ok {
		t.Fatal("ByName failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName false positive")
	}
}

func TestFleetSizeDistMatchesFig7(t *testing.T) {
	r := rng.New(1)
	p := Fleet()
	countHist := stats.NewLogHistogram(3, 31)
	memHist := stats.NewLogHistogram(3, 31)
	const n = 1500000
	for i := 0; i < n; i++ {
		s := p.SizeDist.Sample(r)
		countHist.Add(s)
		memHist.AddWeighted(s, s)
	}
	// Fig. 7: objects < 1 KiB are ~98% of objects but only ~28% of bytes.
	if got := countHist.CDFAt(1023); got < 0.96 || got > 0.995 {
		t.Errorf("count CDF at 1KiB = %.3f, want ~0.98", got)
	}
	if got := memHist.CDFAt(1023); got < 0.18 || got > 0.40 {
		t.Errorf("memory CDF at 1KiB = %.3f, want ~0.28", got)
	}
	// Objects > 8 KiB carry ~50% of bytes.
	if got := 1 - memHist.CDFAt(8<<10-1); got < 0.35 || got > 0.62 {
		t.Errorf("memory share above 8KiB = %.3f, want ~0.50", got)
	}
	// Above the 256 KiB ceiling: ~22% of bytes.
	if got := 1 - memHist.CDFAt(256<<10-1); got < 0.12 || got > 0.32 {
		t.Errorf("memory share above 256KiB = %.3f, want ~0.22", got)
	}
}

func TestFleetLifetimeMatchesFig8(t *testing.T) {
	r := rng.New(2)
	m := fleetLifetime()
	// 46% of sub-KiB objects die within 1 ms.
	short := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if m.Sample(r, 256) <= int64(Millisecond) {
			short++
		}
	}
	if frac := float64(short) / n; frac < 0.40 || frac > 0.52 {
		t.Errorf("sub-KiB short-lived fraction %.3f, want ~0.46", frac)
	}
	// 65% of >1 GiB objects live beyond a day.
	long := 0
	for i := 0; i < n; i++ {
		if m.Sample(r, 2<<30) > Day {
			long++
		}
	}
	if frac := float64(long) / n; frac < 0.58 || frac > 0.72 {
		t.Errorf(">1GiB day-plus fraction %.3f, want ~0.65", frac)
	}
}

func TestSPECLifetimeBimodal(t *testing.T) {
	r := rng.New(3)
	p := SPECLike()
	short, long := 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		l := p.Lifetime.Sample(r, 1024)
		switch {
		case l <= Millisecond:
			short++
		case l >= Day:
			long++
		}
	}
	if float64(short+long)/n < 0.95 {
		t.Errorf("SPEC lifetimes not bimodal: short=%d long=%d of %d", short, long, n)
	}
}

func TestThreadDynamicsFluctuates(t *testing.T) {
	r := rng.New(4)
	d := ThreadDynamics{Base: 30, Amplitude: 10, PeriodNs: Hour, Jitter: 0.15, SpikeProb: 0.02, SpikeBoost: 10}
	series := d.Series(r, 2*Hour, Minute)
	if len(series) != 120 {
		t.Fatalf("series length %d", len(series))
	}
	min, max := series[0], series[0]
	for _, v := range series {
		if v < 1 {
			t.Fatal("thread count below 1")
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min < 10 {
		t.Fatalf("dynamics too flat: min=%d max=%d", min, max)
	}
}

func TestThreadDynamicsFloorsAtOne(t *testing.T) {
	r := rng.New(5)
	d := ThreadDynamics{Base: 1, Amplitude: 5, PeriodNs: Hour, Jitter: 0.5}
	for t0 := int64(0); t0 < Hour; t0 += Minute {
		if d.Count(r, t0) < 1 {
			t.Fatal("count below 1")
		}
	}
}

func TestDriverRunBasics(t *testing.T) {
	a := core.New(core.OptimizedConfig(), topology.New(topology.Default()))
	opts := DefaultOptions(7)
	opts.Duration = 20 * Millisecond
	res := Run(Fleet(), a, opts)
	if res.Ops < 1000 {
		t.Fatalf("too few ops: %d", res.Ops)
	}
	if res.MallocNs <= 0 || res.TotalCPUNs <= res.MallocNs {
		t.Fatalf("time accounting: malloc=%v total=%v", res.MallocNs, res.TotalCPUNs)
	}
	if res.Stats.LiveObjects <= 0 {
		t.Fatal("no live objects at end")
	}
	if len(res.ThreadSeries) < 5 {
		t.Fatalf("thread series too short: %d", len(res.ThreadSeries))
	}
	if res.OpsPerSecond() <= 0 {
		t.Fatal("ops/sec")
	}
}

func TestDriverDeterministic(t *testing.T) {
	run := func() Result {
		a := core.New(core.OptimizedConfig(), topology.New(topology.Default()))
		opts := DefaultOptions(11)
		opts.Duration = 10 * Millisecond
		return Run(Monarch(), a, opts)
	}
	r1, r2 := run(), run()
	if r1.Ops != r2.Ops || r1.MallocNs != r2.MallocNs || r1.Stats != r2.Stats {
		t.Fatal("driver not deterministic")
	}
}

func TestDriverDrainRemaining(t *testing.T) {
	a := core.New(core.BaselineConfig(), topology.New(topology.Default()))
	opts := DefaultOptions(13)
	opts.Duration = 10 * Millisecond
	d := NewDriver(Bigtable(), a, opts)
	d.Run()
	if d.LiveObjects() == 0 {
		t.Fatal("expected live objects")
	}
	d.DrainRemaining()
	a.DrainCaches()
	st := a.Stats()
	if st.LiveObjects != 0 || st.Heap.UsedBytes != 0 {
		t.Fatalf("drain incomplete: %+v", st)
	}
}

func TestTimeWarpMonotoneAndIdentityBelowCutoff(t *testing.T) {
	a := core.New(core.BaselineConfig(), topology.New(topology.Default()))
	d := NewDriver(Fleet(), a, DefaultOptions(1))
	warp := func(life int64) int64 { return int64(d.warp.Apply(float64(life))) }
	if got := warp(1000); got != 1000 {
		t.Fatalf("warp(1000) = %d", got)
	}
	prev := int64(0)
	for _, life := range []int64{Millisecond, Second, Minute, Hour, Day} {
		w := warp(life)
		if w <= prev {
			t.Fatalf("warp not monotone at %d: %d <= %d", life, w, prev)
		}
		prev = w
	}
	if w := warp(Day); w >= Day {
		t.Fatal("warp did not compress day-scale lifetime")
	}
}

func TestSPECNearZeroMallocShare(t *testing.T) {
	a := core.New(core.BaselineConfig(), topology.New(topology.Default()))
	opts := DefaultOptions(17)
	opts.Duration = 20 * Millisecond
	res := Run(SPECLike(), a, opts)
	fleetA := core.New(core.BaselineConfig(), topology.New(topology.Default()))
	fleetRes := Run(Fleet(), fleetA, opts)
	if res.Ops*10 > fleetRes.Ops {
		t.Fatalf("SPEC allocates too much: %d vs fleet %d", res.Ops, fleetRes.Ops)
	}
}

func TestDriverSnapshotCallback(t *testing.T) {
	a := core.New(core.BaselineConfig(), topology.New(topology.Default()))
	opts := DefaultOptions(19)
	opts.Duration = 10 * Millisecond
	calls := 0
	opts.Snapshot = func(now int64) { calls++ }
	opts.SnapshotEveryNs = Millisecond
	Run(Fleet(), a, opts)
	if calls < 8 || calls > 11 {
		t.Fatalf("snapshot calls = %d, want ~10", calls)
	}
}

// TestDriverChaosGracefulDegradation runs a profile under an aggressive
// fault plan with periodic audits and asserts the driver degrades
// gracefully: failed allocations are dropped and counted, never
// panicked on, frees keep flowing so pressure can clear, and the
// periodic invariant audits stay clean throughout.
func TestDriverChaosGracefulDegradation(t *testing.T) {
	cfg := core.OptimizedConfig()
	cfg.Faults = mem.FaultPlan{Seed: 3, MmapFailureRate: 0.05, MappedBytesBudget: 512 << 20}
	cfg.Check = check.Config{Mode: check.ModeSampled, SampleEvery: 64, MaxViolations: 64}
	a := core.New(cfg, topology.New(topology.Default()))

	opts := DefaultOptions(21)
	opts.Duration = 30 * Millisecond
	opts.AuditEveryNs = 5 * Millisecond
	res := Run(Bigtable(), a, opts)

	if res.Ops < 1000 {
		t.Fatalf("driver made no progress under chaos: %d ops", res.Ops)
	}
	st := a.Stats()
	if st.Faults.InjectedFailures == 0 && st.Faults.BudgetFailures == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if res.Audits < 5 {
		t.Fatalf("expected >= 5 audits (periodic + final), got %d", res.Audits)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("audit violations under chaos: %v", res.Violations)
	}
	// Under a 512 MiB budget and bigtable's preload, some allocations
	// should actually have failed and been absorbed.
	if st.OOMErrors > 0 && res.AllocFailures == 0 {
		t.Fatal("allocator saw OOMs the driver did not record")
	}
}
