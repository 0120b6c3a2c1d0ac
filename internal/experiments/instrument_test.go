package experiments

import (
	"bytes"
	"testing"

	"wsmalloc/internal/heapprof"
	"wsmalloc/internal/telemetry"
)

// profileFigures are the experiments whose runs share a (profile, seed):
// fig5 and fig15 both run the fleet profile at seed 1, fig5 and fig9
// both run monarch. Each run must still reach the fold.
var profileFigures = []string{"fig5", "fig9", "fig15"}

// foldAt runs the profile figures under in at the given worker bound
// and returns their argument-order fold.
func foldAt(t *testing.T, in Instrumentation, workers int) Measures {
	t.Helper()
	Instrument(in)
	SetWorkers(workers)
	defer func() { Instrument(Instrumentation{}); SetWorkers(0) }()
	reps, err := RunMany(profileFigures, 1, ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	return Fold(reps)
}

func render(t *testing.T, fn func(*bytes.Buffer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := fn(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestHeapProfileFoldKeepsEveryRun checks the -heapprof aggregate: the
// merged views are byte-identical at any worker count, and their samples
// are the sum over the experiments run one at a time, so no run that
// shares a profile and seed with another is dropped.
func TestHeapProfileFoldKeepsEveryRun(t *testing.T) {
	in := Instrumentation{HeapProfile: heapprof.Config{Enabled: true, Seed: 1}}
	var views []string
	var got []heapprof.Profile
	for _, j := range []int{1, 4} {
		got = foldAt(t, in, j).HeapProfiles
		views = append(views, render(t, func(b *bytes.Buffer) error { return heapprof.WriteText(b, got...) })+
			render(t, func(b *bytes.Buffer) error { return heapprof.WriteJSON(b, got...) }))
	}
	if views[0] != views[1] {
		t.Fatal("merged heap profiles differ between -j 1 and -j 4")
	}

	want := map[string]int64{}
	Instrument(in)
	t.Cleanup(func() { Instrument(Instrumentation{}) })
	for _, name := range profileFigures {
		r, _ := ByName(name)
		rep := r.Run(1, ScaleSmoke)
		if len(rep.HeapProfiles) == 0 {
			t.Fatalf("%s carries no heap profiles", name)
		}
		for _, p := range rep.HeapProfiles {
			want[p.View] += p.Samples
		}
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d views, want %d", len(got), len(want))
	}
	for _, p := range got {
		if p.Samples != want[p.View] || p.Samples == 0 {
			t.Errorf("%s: merged %d samples, want %d (the sum over the experiments run alone)",
				p.View, p.Samples, want[p.View])
		}
	}
}

// TestTelemetryFoldMatchesAcrossWorkers checks the -telemetry aggregate:
// its exports are byte-identical at any worker count.
func TestTelemetryFoldMatchesAcrossWorkers(t *testing.T) {
	in := Instrumentation{Telemetry: telemetry.Config{Enabled: true}}
	var exports []string
	for _, j := range []int{1, 4} {
		snap := foldAt(t, in, j).Telemetry.Snapshot("experiments", 0)
		exports = append(exports, render(t, func(b *bytes.Buffer) error { return telemetry.WritePrometheus(b, snap) })+
			render(t, func(b *bytes.Buffer) error { return telemetry.WriteMallocz(b, snap) }))
	}
	if exports[0] != exports[1] {
		t.Fatal("merged telemetry differs between -j 1 and -j 4")
	}
	if len(exports[0]) < 1000 {
		t.Fatalf("telemetry export too thin to compare:\n%s", exports[0])
	}
}
