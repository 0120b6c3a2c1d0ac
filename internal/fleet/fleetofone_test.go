package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// renderProcess renders everything a one-process run exports: the
// telemetry snapshot with its series and trace ring (Prometheus and the
// -metrics-out JSON document), the heap profiles and the hugepage maps.
func renderProcess(t *testing.T, snap telemetry.Snapshot, series []telemetry.Snapshot,
	trace telemetry.TraceDump, profiles []heapprof.Profile, z core.PageHeapZ) map[string]string {
	t.Helper()
	out := map[string]string{}
	render := func(name string, fn func(*bytes.Buffer) error) {
		var b bytes.Buffer
		if err := fn(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b.String()
	}
	render("prom", func(b *bytes.Buffer) error { return telemetry.WritePrometheus(b, snap) })
	render("json", func(b *bytes.Buffer) error {
		return telemetry.WriteJSON(b, map[string]any{"snapshots": []telemetry.Snapshot{snap}, "series": series, "trace": trace})
	})
	render("heapz", func(b *bytes.Buffer) error { return heapprof.WriteText(b, profiles...) })
	render("pageheapz", func(b *bytes.Buffer) error { return core.WritePageHeapZ(b, z) })
	return out
}

// TestFleetOfOneMatchesDirectRun is the equivalence wsmalloc-sim rests
// on: a machine run with zero LifecycleOptions is the same run as
// workload.Run on a fresh allocator. Same result, and — read from the
// runtime's final process and the run's folded registry — the same
// telemetry (series and trace included), heap profiles and hugepage
// maps.
func TestFleetOfOneMatchesDirectRun(t *testing.T) {
	const seed = 11
	for _, app := range []workload.Profile{workload.Monarch(), workload.Spanner()} {
		for name, base := range map[string]core.Config{"baseline": core.BaselineConfig(), "optimized": core.OptimizedConfig()} {
			cfg := base
			cfg.Telemetry = telemetry.DefaultConfig()
			cfg.Telemetry.SampleEveryNs = 2 * workload.Millisecond
			cfg.HeapProfile = heapprof.Config{Enabled: true, Seed: seed}
			opts := workload.DefaultOptions(seed)
			opts.Duration = 12 * workload.Millisecond
			m := Machine{Platform: topology.Default(), App: app, Seed: seed}

			alloc := core.New(cfg, topology.New(m.Platform))
			want := workload.Run(app, alloc, opts)
			tel := alloc.Telemetry()
			wantOut := renderProcess(t, tel.Snapshot("sim", alloc.Now()), tel.Samples(), tel.Tracer().Dump(),
				alloc.HeapProfiles("sim"), alloc.PageHeapZ())

			rm, rt, halted, err := RunMachineLifecycle(m, cfg, opts, LifecycleOptions{})
			if err != nil || halted {
				t.Fatalf("%s/%s: halted=%v err=%v", app.Name, name, halted, err)
			}
			if !reflect.DeepEqual(rm.Result, want) {
				t.Fatalf("%s/%s: fleet-of-one result differs from the direct run", app.Name, name)
			}
			last := rt.Alloc()
			for i := range rm.HeapProfiles {
				rm.HeapProfiles[i].Label = "sim"
			}
			gotOut := renderProcess(t, rm.Telemetry.Snapshot("sim", last.Now()), last.Telemetry().Samples(),
				last.Telemetry().Tracer().Dump(), rm.HeapProfiles, last.PageHeapZ())
			for _, kind := range []string{"prom", "json", "heapz", "pageheapz"} {
				if gotOut[kind] != wantOut[kind] {
					t.Errorf("%s/%s: %s export differs from the direct run (%d vs %d bytes)",
						app.Name, name, kind, len(gotOut[kind]), len(wantOut[kind]))
				}
			}
			if len(wantOut["json"]) < 10_000 || !bytes.Contains([]byte(wantOut["json"]), []byte(`"series"`)) {
				t.Fatalf("%s/%s: JSON export too thin to compare:\n%.500s", app.Name, name, wantOut["json"])
			}
		}
	}
}
