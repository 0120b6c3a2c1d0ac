package fleet

import (
	"bytes"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/workload"
)

// renderTelemetry renders every export format for both arms, so the
// determinism check below covers the full export surface, not just the
// registry contents.
func renderTelemetry(t *testing.T, res ABResult, nowNs int64) string {
	t.Helper()
	if res.Telemetry == nil {
		t.Fatal("telemetry enabled but ABResult.Telemetry is nil")
	}
	snaps := res.Telemetry.Snapshots(nowNs)
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, snaps...); err != nil {
		t.Fatalf("prometheus: %v", err)
	}
	if err := telemetry.WriteJSON(&buf, snaps); err != nil {
		t.Fatalf("json: %v", err)
	}
	if err := telemetry.WriteMallocz(&buf, snaps...); err != nil {
		t.Fatalf("mallocz: %v", err)
	}
	return buf.String()
}

// TestABTelemetryParallelEquivalence extends the PR 2 determinism
// contract to the telemetry pipeline: the rendered exports of a fleet
// experiment with telemetry enabled must be byte-identical at -j 1 and
// -j 4. Registry merges are commutative (integral counters/gauges,
// unit-weight histograms) and the reducer folds machines in enrolment
// order, so worker count and completion order must not leak into the
// output.
func TestABTelemetryParallelEquivalence(t *testing.T) {
	f := New(32, 7)
	opts := DefaultABOptions()
	opts.MinMachines = 4
	opts.DurationNs = 6 * workload.Millisecond
	opts.Telemetry = telemetry.Config{Enabled: true, TraceCapacity: 256}

	opts.Workers = 1
	seq := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
	seqOut := renderTelemetry(t, seq, opts.DurationNs)

	// The exports must carry real data, not an empty registry.
	if !bytes.Contains([]byte(seqOut), []byte("wsmalloc_percpu_miss_total")) {
		t.Fatalf("export missing per-CPU miss counter:\n%.2000s", seqOut)
	}
	if !bytes.Contains([]byte(seqOut), []byte(`arm="control"`)) {
		t.Fatal("export missing control arm label")
	}

	for _, j := range []int{2, 4} {
		opts.Workers = j
		par := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
		parOut := renderTelemetry(t, par, opts.DurationNs)
		if parOut != seqOut {
			t.Fatalf("-j %d telemetry export differs from -j 1 (lengths %d vs %d)",
				j, len(parOut), len(seqOut))
		}
	}
}

// TestABTelemetryDisabledByDefault pins down that a plain experiment
// carries no registries: a %#v of its result must stay free of
// run-dependent pointers.
func TestABTelemetryDisabledByDefault(t *testing.T) {
	f := New(16, 3)
	opts := DefaultABOptions()
	opts.MinMachines = 2
	opts.DurationNs = 4 * workload.Millisecond
	res := f.ABTest(core.BaselineConfig(), core.OptimizedConfig(), opts)
	if res.Telemetry != nil {
		t.Fatal("telemetry registries attached without opting in")
	}
}
