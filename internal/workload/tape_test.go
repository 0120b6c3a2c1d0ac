package workload

import (
	"reflect"
	"strings"
	"testing"

	"wsmalloc/internal/core"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/topology"
)

func tapeAlloc(cfg core.Config) *core.Allocator {
	return core.New(cfg, topology.New(topology.Default()))
}

func tapeOpts(seed uint64, durNs int64) Options {
	opts := DefaultOptions(seed)
	opts.Duration = durNs
	return opts
}

// record runs p under cfg recording into a fresh tape.
func record(t *testing.T, p Profile, cfg core.Config, opts Options) *Tape {
	t.Helper()
	tape := new(Tape)
	opts.Record = tape
	Run(p, tapeAlloc(cfg), opts)
	if !tape.Replayable() {
		t.Fatalf("%s: recording not replayable", p.Name)
	}
	return tape
}

// mustPanic runs fn and returns its panic message, failing if it
// returns normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		if err, ok := r.(error); ok {
			msg = err.Error()
		} else {
			msg, _ = r.(string)
		}
	}()
	fn()
	return ""
}

// TestReplayMatchesLive: a run that replays a tape recorded under
// another allocator design returns the same Result as the live run.
func TestReplayMatchesLive(t *testing.T) {
	for _, p := range []Profile{Fleet(), Spanner(), Redis(), SPECLike()} {
		opts := tapeOpts(7, 4*Millisecond)
		opts.AuditEveryNs = Millisecond
		tape := record(t, p, core.BaselineConfig(), opts)
		live := Run(p, tapeAlloc(core.OptimizedConfig()), opts)
		opts.Replay = tape
		replayed := Run(p, tapeAlloc(core.OptimizedConfig()), opts)
		if !reflect.DeepEqual(live, replayed) {
			t.Fatalf("%s: replay diverged from live:\nlive   %+v\nreplay %+v", p.Name, live, replayed)
		}
		if int64(len(tape.size.v)) != live.Ops || int64(len(tape.free.v)) != live.Frees {
			t.Fatalf("%s: tape holds %d arrivals and %d frees, live run made %d and %d",
				p.Name, len(tape.size.v), len(tape.free.v), live.Ops, live.Frees)
		}
	}
}

// TestExpectedArrivalsSizesTape: on the tracked sweep's 100 ms runs the
// pre-sizing estimate covers a profile's arrivals (so recording does not
// regrow a column) without reserving 25% too much.
func TestExpectedArrivalsSizesTape(t *testing.T) {
	for _, p := range []Profile{Fleet(), Redis(), SPECLike()} {
		opts := tapeOpts(1, 100*Millisecond)
		tape := record(t, p, core.BaselineConfig(), opts)
		got, est := float64(len(tape.size.v)), float64(expectedArrivals(p, opts))
		if est < got || est > 1.25*got {
			t.Errorf("%s: %.0f arrivals, estimate %.0f", p.Name, got, est)
		}
	}
	if n := expectedArrivals(Profile{}, tapeOpts(1, Millisecond)); n != 0 {
		t.Errorf("zero-rate profile: estimate %d, want 0", n)
	}
}

// TestReplayKeyMismatchPanics: a tape replays only the stream it was
// recorded from; every key field is checked.
func TestReplayKeyMismatchPanics(t *testing.T) {
	base := tapeOpts(3, 2*Millisecond)
	tape := record(t, Fleet(), core.BaselineConfig(), base)
	for name, mutate := range map[string]func(*Options){
		"seed":     func(o *Options) { o.Seed++ },
		"duration": func(o *Options) { o.Duration++ },
		"gamma":    func(o *Options) { o.TimeWarpGamma += 0.01 },
		"dynamics": func(o *Options) { o.DynamicsPeriodNs = Millisecond },
	} {
		opts := base
		mutate(&opts)
		opts.Replay = tape
		msg := mustPanic(t, func() { NewDriver(Fleet(), tapeAlloc(core.BaselineConfig()), opts) })
		if !strings.Contains(msg, "replay key mismatch") {
			t.Errorf("%s: panic %q does not name the key mismatch", name, msg)
		}
	}
	opts := base
	opts.Replay = tape
	msg := mustPanic(t, func() { NewDriver(Monarch(), tapeAlloc(core.BaselineConfig()), opts) })
	if !strings.Contains(msg, "replay key mismatch") {
		t.Errorf("profile: panic %q does not name the key mismatch", msg)
	}
}

// TestTapeRejectsInterruptions: the tape cursor is not serialized, so a
// taped driver refuses every way of leaving its single run.
func TestTapeRejectsInterruptions(t *testing.T) {
	base := tapeOpts(5, 2*Millisecond)
	tape := record(t, Fleet(), core.BaselineConfig(), base)
	for _, mode := range []string{"record", "replay"} {
		taped := func(o Options) Options {
			if mode == "record" {
				o.Record = new(Tape)
			} else {
				o.Replay = tape
			}
			return o
		}
		for name, mutate := range map[string]func(*Options){
			"checkpoint":         func(o *Options) { o.Checkpoint, o.CheckpointEveryNs = func(int64) {}, Millisecond },
			"halt":               func(o *Options) { o.HaltAtNs = Millisecond },
			"haltOnAllocFailure": func(o *Options) { o.HaltOnAllocFailure = true },
		} {
			opts := base
			mutate(&opts)
			msg := mustPanic(t, func() { NewDriver(Fleet(), tapeAlloc(core.BaselineConfig()), taped(opts)) })
			if !strings.Contains(msg, "tape cursor is not serialized") {
				t.Errorf("%s/%s: panic %q does not explain the rejection", mode, name, msg)
			}
		}
		d := NewDriver(Fleet(), tapeAlloc(core.BaselineConfig()), taped(base))
		if msg := mustPanic(t, func() { d.Restart(tapeAlloc(core.BaselineConfig())) }); !strings.Contains(msg, "restart") {
			t.Errorf("%s/restart: panic %q", mode, msg)
		}
		if msg := mustPanic(t, func() { d.SetHaltAt(Millisecond) }); !strings.Contains(msg, "halt") {
			t.Errorf("%s/SetHaltAt: panic %q", mode, msg)
		}
	}
	both := base
	both.Record, both.Replay = new(Tape), tape
	mustPanic(t, func() { NewDriver(Fleet(), tapeAlloc(core.BaselineConfig()), both) })
}

// TestReplayMustConsumeTapeExactly: a replay that draws fewer values
// than its recording panics at the end of the run, naming the column;
// one that draws more panics at the overrun.
func TestReplayMustConsumeTapeExactly(t *testing.T) {
	opts := tapeOpts(9, 2*Millisecond)
	tape := record(t, Fleet(), core.BaselineConfig(), opts)
	opts.Replay = tape

	tape.free.v = append(tape.free.v, 0)
	msg := mustPanic(t, func() { Run(Fleet(), tapeAlloc(core.BaselineConfig()), opts) })
	if !strings.Contains(msg, "free-thread column") {
		t.Errorf("leftover value: panic %q does not name the column", msg)
	}

	tape.free.v = tape.free.v[:len(tape.free.v)-2]
	msg = mustPanic(t, func() { Run(Fleet(), tapeAlloc(core.BaselineConfig()), opts) })
	if !strings.Contains(msg, "drew past the end") {
		t.Errorf("short column: panic %q does not report the overrun", msg)
	}
}

// TestReplayStopsAtRefusedMalloc: a refused malloc, in preload or in
// the event loop, ends a replay (the recording drew on past it), marks
// the tape stopped, and leaves the tape replayable for a run that does
// not refuse.
func TestReplayStopsAtRefusedMalloc(t *testing.T) {
	opts := tapeOpts(11, 4*Millisecond)
	tape := record(t, Spanner(), core.BaselineConfig(), opts)
	opts.Replay = tape
	live := Run(Spanner(), tapeAlloc(core.BaselineConfig()), tapeOpts(11, 4*Millisecond))
	for _, tc := range []struct {
		name      string
		budget    int64
		inPreload bool
	}{
		{"preload", 1100 << 20, true},
		{"event loop", 1600 << 20, false},
	} {
		tight := core.BaselineConfig()
		tight.Faults = mem.FaultPlan{MappedBytesBudget: tc.budget}
		d := NewDriver(Spanner(), tapeAlloc(tight), opts)
		res := d.Run()
		if !tape.Stopped() || d.HaltReason() != HaltReplayRefused || res.AllocFailures != 1 || (res.Ops == 0) != tc.inPreload {
			t.Fatalf("%s: stopped=%v reason=%v failures=%d ops=%d, want a replay stopped at its first refusal",
				tc.name, tape.Stopped(), d.HaltReason(), res.AllocFailures, res.Ops)
		}
		replayed := Run(Spanner(), tapeAlloc(core.BaselineConfig()), opts)
		if tape.Stopped() || !reflect.DeepEqual(live, replayed) {
			t.Fatalf("%s: tape no longer replays after a stopped replay", tc.name)
		}
	}
}

// TestRecordingWithRefusalsNotReplayable: a refused malloc skips its
// lifetime draw, so such a recording cannot stand in for a run whose
// mallocs succeed.
func TestRecordingWithRefusalsNotReplayable(t *testing.T) {
	tight := core.BaselineConfig()
	tight.Faults = mem.FaultPlan{MappedBytesBudget: 1600 << 20}
	opts := tapeOpts(11, 4*Millisecond)
	tape := new(Tape)
	opts.Record = tape
	if res := Run(Spanner(), tapeAlloc(tight), opts); res.AllocFailures == 0 {
		t.Fatal("budget did not refuse any malloc")
	}
	if tape.Replayable() {
		t.Fatal("recording with refused mallocs reported replayable")
	}
	opts.Record, opts.Replay = nil, tape
	mustPanic(t, func() { NewDriver(Spanner(), tapeAlloc(core.BaselineConfig()), opts) })
}

// FuzzTapeReplay: for any seed, profile, short duration and warp gamma,
// replaying a tape recorded under the baseline design reproduces the
// live optimized run exactly.
func FuzzTapeReplay(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), 0.22)
	f.Add(uint64(42), uint8(3), uint8(4), 0.15)
	f.Add(uint64(7331), uint8(9), uint8(2), 1.0)
	profiles := AllProfiles()
	f.Fuzz(func(t *testing.T, seed uint64, profile, durMs uint8, gamma float64) {
		if !(gamma >= 0.05 && gamma <= 1) {
			t.Skip()
		}
		p := profiles[int(profile)%len(profiles)]
		opts := tapeOpts(seed, int64(1+durMs%5)*Millisecond)
		opts.TimeWarpGamma = gamma
		tape := record(t, p, core.BaselineConfig(), opts)
		live := Run(p, tapeAlloc(core.OptimizedConfig()), opts)
		opts.Replay = tape
		if replayed := Run(p, tapeAlloc(core.OptimizedConfig()), opts); !reflect.DeepEqual(live, replayed) {
			t.Fatalf("%s seed %d: replay diverged from live:\nlive   %+v\nreplay %+v", p.Name, seed, live, replayed)
		}
	})
}
