package fleet

import (
	"fmt"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/machine"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/workload"
)

// fingerprint renders every field of an ABResult (rows, per-app slices,
// ChaosStats) so equivalence checks are byte-exact, not approximate.
func fingerprint(res ABResult) string { return fmt.Sprintf("%#v", res) }

// equivalenceOpts enables every aggregation path — chaos plan, audits,
// time warp — so the determinism contract is checked across the full
// reducer, including the PR 1 chaos/audit plumbing.
func equivalenceOpts(seed uint64) ABOptions {
	opts := DefaultABOptions()
	opts.MinMachines = 4
	opts.DurationNs = 6 * workload.Millisecond
	opts.AuditEveryNs = opts.DurationNs / 2
	opts.Chaos = mem.FaultPlan{Seed: seed ^ 0xabcd, MmapFailureRate: 0.01}
	return opts
}

// TestABTestParallelEquivalence is the determinism contract: for several
// seeds, ABTest with -j 8 produces byte-identical results (rows,
// ChaosStats, perfmodel deltas) to -j 1, independent of worker count and
// of completion order (repeated parallel runs reschedule arbitrarily).
func TestABTestParallelEquivalence(t *testing.T) {
	var firstSeq string
	for _, seed := range []uint64{1, 2, 3} {
		f := New(32, seed)
		opts := equivalenceOpts(seed)
		opts.Workers = 1
		seq := fingerprint(f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts))
		if seed == 1 {
			firstSeq = seq
		}
		js := []int{8}
		if seed == 1 {
			js = []int{2, 8} // worker-count independence, once
		}
		for _, j := range js {
			opts.Workers = j
			par := fingerprint(f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts))
			if par != seq {
				t.Fatalf("seed %d: -j %d result differs from -j 1:\n%s\nvs\n%s", seed, j, par, seq)
			}
		}
	}
	// Completion order varies run to run; the result must not.
	f := New(32, 1)
	opts := equivalenceOpts(1)
	opts.Workers = 8
	if got := fingerprint(f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)); got != firstSeq {
		t.Fatal("parallel rerun not reproducible across schedules")
	}
}

func TestSampleIndicesEdgeCases(t *testing.T) {
	distinct := func(idx []int, total int) {
		t.Helper()
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= total {
				t.Fatalf("index %d out of range [0,%d)", i, total)
			}
			if seen[i] {
				t.Fatalf("machine %d enrolled twice: %v", i, idx)
			}
			seen[i] = true
		}
	}

	// Empty fleet: no enrolment, no division by zero.
	if idx := sampleIndices(0, DefaultABOptions()); idx != nil {
		t.Fatalf("empty fleet enrolled %v", idx)
	}

	// SampleFraction > 1 clamps to the whole fleet, each machine once.
	opts := ABOptions{SampleFraction: 2.5}
	idx := sampleIndices(10, opts)
	if len(idx) != 10 {
		t.Fatalf("oversample enrolled %d of 10", len(idx))
	}
	distinct(idx, 10)

	// MinMachines beyond the fleet size clamps to the fleet size.
	opts = ABOptions{SampleFraction: 0.01, MinMachines: 50}
	idx = sampleIndices(10, opts)
	if len(idx) != 10 {
		t.Fatalf("MinMachines>fleet enrolled %d of 10", len(idx))
	}
	distinct(idx, 10)

	// Zero sample and zero floor enrols nothing.
	if idx := sampleIndices(10, ABOptions{}); idx != nil {
		t.Fatalf("zero options enrolled %v", idx)
	}

	// n close to the fleet size (the stride-aliasing regime): every
	// fraction must still yield distinct in-range machines.
	for total := 1; total <= 40; total++ {
		for _, frac := range []float64{0.1, 0.5, 0.7, 0.9, 0.97, 1.0, 1.5} {
			opts := ABOptions{SampleFraction: frac, MinMachines: 1}
			idx := sampleIndices(total, opts)
			want := int(float64(total) * frac)
			if want < 1 {
				want = 1
			}
			if want > total {
				want = total
			}
			if len(idx) != want {
				t.Fatalf("total=%d frac=%v: enrolled %d, want %d", total, frac, len(idx), want)
			}
			distinct(idx, total)
		}
	}
}

// TestABTestOverSampleRunsEachMachineOnce drives a full ABTest at
// SampleFraction > 1 and counts actual machine executions through the
// run hook: every fleet machine must run exactly twice (control +
// experiment), never silently re-enrolled.
func TestABTestOverSampleRunsEachMachineOnce(t *testing.T) {
	f := New(8, 17)
	orig := runMachine
	defer func() { runMachine = orig }()
	runs := make([]int, len(f.Machines))
	runMachine = func(m Machine, cfg core.Config, opts workload.Options, lc LifecycleOptions) (RunMetrics, *machine.Runtime, bool, error) {
		runs[m.ID]++ // Workers=1 below: no lock needed
		return orig(m, cfg, opts, lc)
	}
	opts := DefaultABOptions()
	opts.SampleFraction = 3.0
	opts.MinMachines = 1
	opts.DurationNs = 5 * workload.Millisecond
	opts.Workers = 1
	res := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
	if res.Fleet.Machines != len(f.Machines) {
		t.Fatalf("enrolled %d machines, want the whole fleet of %d", res.Fleet.Machines, len(f.Machines))
	}
	for id, n := range runs {
		if n != 2 {
			t.Fatalf("machine %d ran %d times, want 2 (control+experiment)", id, n)
		}
	}
}

func TestABTestEmptyFleet(t *testing.T) {
	f := &Fleet{}
	res, err := f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), DefaultABOptions())
	if err != nil {
		t.Fatalf("empty fleet: %v", err)
	}
	if res.Fleet.Machines != 0 || len(res.PerApp) != 0 {
		t.Fatalf("empty fleet produced rows: %+v", res)
	}
}

// TestABTestWorkerPanicCarriesSeed injects a machine whose run panics
// and asserts the engine surfaces it as an error naming the machine's
// seed (ABTestErr) and as a decorated panic (ABTest) — never a deadlock
// or a bare goroutine crash.
func TestABTestWorkerPanicCarriesSeed(t *testing.T) {
	f := New(24, 9)
	opts := DefaultABOptions()
	opts.MinMachines = 6
	opts.DurationNs = 5 * workload.Millisecond
	opts.Workers = 4

	idx := sampleIndices(len(f.Machines), opts)
	bad := f.Machines[idx[len(idx)/2]]

	orig := runMachine
	defer func() { runMachine = orig }()
	runMachine = func(m Machine, cfg core.Config, wopts workload.Options, lc LifecycleOptions) (RunMetrics, *machine.Runtime, bool, error) {
		if m.Seed == bad.Seed {
			panic("injected machine fault")
		}
		return orig(m, cfg, wopts, lc)
	}

	_, err := f.ABTestErr(core.BaselineConfig(), core.OptimizedConfig(), opts)
	if err == nil {
		t.Fatal("panicking machine produced no error")
	}
	for _, want := range []string{fmt.Sprintf("seed %#x", bad.Seed), "injected machine fault", bad.App.Name} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("ABTest did not propagate the machine panic")
			}
			if !strings.Contains(fmt.Sprint(r), fmt.Sprintf("seed %#x", bad.Seed)) {
				t.Fatalf("ABTest panic %v missing machine seed", r)
			}
		}()
		f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
	}()
}
