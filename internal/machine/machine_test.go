package machine

import (
	"reflect"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

func testDesc(id int) Desc {
	return Desc{ID: id, Platform: topology.Default(), App: workload.Fleet(), Seed: 0x5eed + uint64(id)}
}

func testOptions(d Desc) workload.Options {
	opts := workload.DefaultOptions(d.Seed)
	opts.Duration = 6 * workload.Millisecond
	return opts
}

func foldTelemetry(rt *Runtime) *telemetry.Registry {
	reg := telemetry.NewRegistry()
	rt.FoldTelemetry(reg)
	return reg
}

func counter(t *testing.T, reg *telemetry.Registry, name string) int64 {
	t.Helper()
	for _, c := range reg.Snapshot("", 0).Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("no counter %s", name)
	return 0
}

// TestRunUntilCapsOOMRestarts: a budget below the resident heap OOMs
// every process, so RunUntil restarts exactly maxOOM times and reports
// the cap on the next kill, leaving the driver halted at the refusal.
func TestRunUntilCapsOOMRestarts(t *testing.T) {
	d := testDesc(0)
	cfg := core.BaselineConfig()
	cfg.Faults = mem.FaultPlan{MappedBytesBudget: 32 << 20}
	opts := testOptions(d)
	opts.HaltOnAllocFailure = true
	rt := New(d, cfg, opts)
	var kills []Kill
	rt.OnRestart = func(why Kill, _ int64) { kills = append(kills, why) }

	if _, capped := rt.RunUntil(0, 3); !capped {
		t.Fatal("a wedged machine must hit the restart cap")
	}
	if got, want := rt.Counters(), (Counters{Restarts: 3, OOMKills: 3}); got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(kills, []Kill{OOM, OOM, OOM}) {
		t.Fatalf("OnRestart saw %v", kills)
	}
	if drv := rt.Driver(); !drv.Halted() || drv.HaltReason() != workload.HaltAllocFailure {
		t.Fatal("capped run must leave the driver halted at the refused allocation")
	}
}

// TestRestartColdCarriesTelemetryAndPinnedDesign: a cold restart brings
// the fresh allocator up under the pinned design and folds the dead
// process's counters into the machine's telemetry, so they never rewind.
func TestRestartColdCarriesTelemetryAndPinnedDesign(t *testing.T) {
	d := testDesc(1)
	cfg := core.BaselineConfig()
	cfg.Telemetry = telemetry.Config{Enabled: true}
	rt := New(d, cfg, testOptions(d))
	if _, capped := rt.RunUntil(2*workload.Millisecond, 0); capped {
		t.Fatal("unexpected OOM")
	}
	optimized := policy.Optimized().String()
	if err := rt.Pin(optimized); err != nil {
		t.Fatal(err)
	}
	before := counter(t, foldTelemetry(rt), "percpu_miss_total")

	old := rt.Alloc()
	rt.RestartCold(Burst)
	if rt.Alloc() == old {
		t.Fatal("restart kept the dead process's allocator")
	}
	if got := rt.Alloc().Design(); got != optimized {
		t.Fatalf("restarted allocator runs design %q, want the pinned %q", got, optimized)
	}
	if got, want := rt.Counters(), (Counters{Restarts: 1, BurstKills: 1}); got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	if got := counter(t, foldTelemetry(rt), "percpu_miss_total"); got < before {
		t.Fatalf("percpu_miss_total went backwards across the restart: %d -> %d", before, got)
	}
	rt.RunUntil(0, 0)
	if got := counter(t, foldTelemetry(rt), "percpu_miss_total"); got <= before {
		t.Fatalf("the cold process should add misses: %d -> %d", before, got)
	}
}

// TestStateRoundTrip: a machine encoded mid-run, after a restart, and
// decoded into a fresh runtime finishes exactly like one never stopped;
// a blob for another machine is refused.
func TestStateRoundTrip(t *testing.T) {
	d := testDesc(2)
	cfg := core.BaselineConfig()
	cfg.Telemetry = telemetry.Config{Enabled: true}
	opts := testOptions(d)
	mid := 3 * workload.Millisecond

	run := func(rt *Runtime) (workload.Result, []byte) {
		res, _ := rt.RunUntil(0, 0)
		var sb strings.Builder
		if err := telemetry.WritePrometheus(&sb, foldTelemetry(rt).Snapshot("", 0)); err != nil {
			t.Fatal(err)
		}
		return res, []byte(sb.String())
	}
	half := func() *Runtime {
		rt := New(d, cfg, opts)
		rt.RunUntil(mid/2, 0)
		rt.RestartCold(Churn)
		rt.RunUntil(mid, 0)
		return rt
	}
	wantRes, wantTel := run(half())

	var e snapshot.Encoder
	half().EncodeState(&e)
	blob := e.Finish()
	decode := func(rt *Runtime) error {
		dec, err := snapshot.NewDecoder(blob)
		if err != nil {
			t.Fatal(err)
		}
		return rt.DecodeState(dec)
	}

	resumed := New(d, cfg, opts)
	if err := decode(resumed); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Counters(); got != (Counters{Restarts: 1, ChurnKills: 1}) {
		t.Fatalf("restored counters %+v", got)
	}
	gotRes, gotTel := run(resumed)
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("resumed run's result differs from the uninterrupted one")
	}
	if string(gotTel) != string(wantTel) {
		t.Fatal("resumed run's telemetry differs from the uninterrupted one")
	}

	other := testDesc(3)
	if err := decode(New(other, cfg, testOptions(other))); err == nil || !strings.Contains(err.Error(), "different machine") {
		t.Fatalf("decoding another machine's blob: err = %v", err)
	}
}
