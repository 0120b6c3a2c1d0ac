package daemon

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wsmalloc/internal/policy"
)

// rolloutTestConfig shapes a fast rollout: two stages (25% canary, full
// bake), one settle tick, three baked ticks per stage. The watchdog
// threshold is left to each test: promotion tests park it out of the
// way, rollback tests arm it.
func rolloutTestConfig(t *testing.T, seed uint64) Config {
	cfg := testConfig(t, seed)
	cfg.ChurnPerTick = 0
	cfg.Rollout = RolloutConfig{
		StageFracs:       []float64{0.25},
		StageTicks:       3,
		SettleTicks:      1,
		PromoteThreshold: 100, // generous gate: healthy candidates promote
		MinRate:          1,
	}
	return cfg
}

func mustStartRollout(t *testing.T, d *Daemon, design string) {
	t.Helper()
	if _, err := d.StartRollout(design); err != nil {
		t.Fatalf("StartRollout(%q): %v", design, err)
	}
}

// TestRolloutConfigDefaults: withDefaults must force a terminal 100%
// stage and fill every zero knob.
func TestRolloutConfigDefaults(t *testing.T) {
	c := RolloutConfig{StageFracs: []float64{0.01, 0.10}}.withDefaults()
	if got := c.StageFracs[len(c.StageFracs)-1]; got != 1.0 {
		t.Fatalf("terminal stage frac = %g, want 1.0", got)
	}
	if c.StageTicks <= 0 || c.PromoteThreshold <= 0 || c.MinRate <= 0 {
		t.Fatalf("zero knobs not defaulted: %+v", c)
	}
}

// TestStageSizeCeilsAndFloors: 1% of a fleet is at least one machine,
// fractions ceil, and no stage exceeds the fleet.
func TestStageSizeCeilsAndFloors(t *testing.T) {
	cases := []struct {
		frac float64
		n    int
		want int
	}{
		{0.01, 128, 2}, // ceil(1.28)
		{0.01, 16, 1},  // floor at one machine
		{0.10, 16, 2},  // ceil(1.6)
		{1.0, 16, 16},
		{2.0, 16, 16}, // capped at the fleet
	}
	for _, c := range cases {
		if got := stageSize(c.frac, c.n); got != c.want {
			t.Errorf("stageSize(%g, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}

// TestRolloutPermDeterministic: the machine assignment is a permutation
// and is a pure function of the seed.
func TestRolloutPermDeterministic(t *testing.T) {
	p1 := rolloutPerm(64, 9)
	p2 := rolloutPerm(64, 9)
	seen := make([]bool, 64)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("permutation not deterministic for equal seeds")
		}
		if seen[p1[i]] {
			t.Fatalf("ordinal %d appears twice", p1[i])
		}
		seen[p1[i]] = true
	}
	if p3 := rolloutPerm(64, 10); p1[0] == p3[0] && p1[1] == p3[1] && p1[2] == p3[2] && p1[3] == p3[3] {
		t.Fatal("different seeds produced the same assignment prefix")
	}
}

// TestStartRolloutRejections covers the synchronous admission checks:
// unknown designs are rejected with the tier's registered policies in
// the error, Observe-off daemons cannot roll out, and only one rollout
// can be in flight at a time.
func TestStartRolloutRejections(t *testing.T) {
	cfg := rolloutTestConfig(t, 31)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := d.StartRollout("percpu=warp"); err == nil {
		t.Fatal("unknown policy accepted")
	} else if msg := err.Error(); !strings.Contains(msg, "percpu") || !strings.Contains(msg, "hetero") {
		t.Fatalf("unknown-policy error should name the tier and its registered policies: %v", err)
	}
	if _, err := d.StartRollout("percpu=hetero,bogus"); err == nil {
		t.Fatal("malformed design accepted")
	}

	mustStartRollout(t, d, "optimized")
	if _, err := d.StartRollout("optimized"); err == nil {
		t.Fatal("overlapping rollout accepted")
	} else if !strings.Contains(err.Error(), "already active") {
		t.Fatalf("overlap error = %v", err)
	}

	off := testConfig(t, 32)
	off.Observe = false
	bare, err := New(off)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.StartRollout("optimized"); err == nil {
		t.Fatal("Observe-off daemon accepted a rollout")
	}
}

// TestRolloutPromotion drives a healthy candidate through every stage:
// the canary prefix swaps live, each gate passes, the full-fleet bake
// stays quiet, and the candidate becomes the daemon's active design —
// pinned on every machine so cold restarts keep it.
func TestRolloutPromotion(t *testing.T) {
	cfg := rolloutTestConfig(t, 41)
	cfg.Watchdog.RateThreshold = 1e9 // isolate the gate from the blunt safety net
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runTicks(t, d, 4) // pre-rollout steady state

	candidate := policy.Optimized().String()
	mustStartRollout(t, d, candidate)

	// Not yet begun: the swap lands at the next tick boundary.
	if st := d.Status(); st.RolloutActive {
		t.Fatal("rollout active before the next tick")
	}
	runTicks(t, d, 1)
	st := d.Status()
	if !st.RolloutActive || st.RolloutDesign != candidate || st.RolloutPrior != "baseline" {
		t.Fatalf("stage 1 status: %+v", st)
	}
	if st.RolloutMachines != 2 { // ceil(0.25 * 8 enrolled)
		t.Fatalf("canary machines = %d, want 2", st.RolloutMachines)
	}

	// Two stages at (1 settle + 3 bake) each: 8 more ticks promote.
	runTicks(t, d, 10)
	st = d.Status()
	if st.RolloutActive {
		t.Fatalf("rollout still active: %+v", st)
	}
	if st.RolloutsPromoted != 1 || st.RolloutsRolledBack != 0 {
		t.Fatalf("promoted/rolledback = %d/%d, want 1/0", st.RolloutsPromoted, st.RolloutsRolledBack)
	}
	if st.ActiveDesign != candidate {
		t.Fatalf("active design = %q, want %q", st.ActiveDesign, candidate)
	}
	for _, ms := range d.machines {
		if ms.rt.Design() != candidate {
			t.Fatalf("machine %d not pinned to the promoted design: %q", ms.rt.Desc.ID, ms.rt.Design())
		}
	}

	// The slot frees up: a follow-up rollout is admitted.
	mustStartRollout(t, d, "baseline")
}

// TestRolloutRollbackRestoresPrior: a watchdog regression while the
// canary bakes must revert every candidate machine to the exact prior
// design, raise a structured rollback alert (ring and JSONL), and free
// the rollout slot.
func TestRolloutRollbackRestoresPrior(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "alerts.jsonl")
	cfg := rolloutTestConfig(t, 51)
	cfg.AlertLog = logPath
	cfg.Watchdog.Window = 4
	cfg.Watchdog.Warmup = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, d, 6) // warm the watchdog baseline

	candidate := policy.Optimized().String()
	mustStartRollout(t, d, candidate)
	runTicks(t, d, 2) // begin + settle: the canary is live and gated

	st := d.Status()
	if !st.RolloutActive {
		t.Fatalf("rollout not active: %+v", st)
	}
	canary := append([]int(nil), d.ro.perm[:d.ro.members]...)

	d.Inject(2, 1.0) // fault burst: cold-restart storm trips the watchdog
	for i := 0; i < 8 && d.Status().RolloutActive; i++ {
		runTicks(t, d, 1)
	}
	st = d.Status()
	if st.RolloutActive {
		t.Fatal("rollout survived a watchdog regression")
	}
	if st.RolloutsRolledBack != 1 || st.RolloutsPromoted != 0 {
		t.Fatalf("promoted/rolledback = %d/%d, want 0/1", st.RolloutsPromoted, st.RolloutsRolledBack)
	}
	if st.ActiveDesign != "baseline" {
		t.Fatalf("active design after rollback = %q, want baseline", st.ActiveDesign)
	}
	for _, ord := range canary {
		if got := d.machines[ord].rt.Design(); got != "baseline" {
			t.Fatalf("canary machine %d left on %q after rollback", ord, got)
		}
	}
	d.Close()

	blob, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	log := string(blob)
	if !strings.Contains(log, `"kind":"rollback"`) {
		t.Fatalf("alert log has no rollback alert:\n%s", log)
	}
	if !strings.Contains(log, `"design":"`+candidate+`"`) {
		t.Fatalf("rollback alert does not name the candidate design:\n%s", log)
	}

	// The slot frees up after a rollback too.
	d2, err := New(rolloutTestConfig(t, 51))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	mustStartRollout(t, d2, candidate)
}

// TestRolloutCheckpointResumeBitIdentical extends the crash-tolerance
// contract to a live rollout: killing the daemon mid-rollout (canary
// swapped, stage half-baked) and resuming must finish the rollout —
// including the promotion — bit-identically to an uninterrupted run.
func TestRolloutCheckpointResumeBitIdentical(t *testing.T) {
	const (
		preTicks  = 3
		midTicks  = 2 // begin + settle: checkpoint lands mid-stage
		postTicks = 10
	)
	candidate := policy.Optimized().String()

	mk := func(dir string) Config {
		cfg := rolloutTestConfig(t, 61)
		cfg.Watchdog.RateThreshold = 1e9
		cfg.CheckpointDir = dir
		return cfg
	}

	a, err := New(mk(""))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	runTicks(t, a, preTicks)
	mustStartRollout(t, a, candidate)
	runTicks(t, a, midTicks+postTicks)
	want := fingerprintExport(t, a)
	wantSt := a.Status()
	if wantSt.RolloutsPromoted != 1 {
		t.Fatalf("uninterrupted run did not promote: %+v", wantSt)
	}

	dir := t.TempDir()
	b, err := New(mk(dir))
	if err != nil {
		t.Fatal(err)
	}
	runTicks(t, b, preTicks)
	mustStartRollout(t, b, candidate)
	runTicks(t, b, midTicks)
	if st := b.Status(); !st.RolloutActive {
		t.Fatalf("checkpoint would not land mid-rollout: %+v", st)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	rcfg := mk(dir)
	rcfg.Resume = true
	c, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := c.Status()
	if !st.RolloutActive || st.RolloutDesign != candidate {
		t.Fatalf("resumed daemon lost the in-flight rollout: %+v", st)
	}
	if !c.rolloutBusy.Load() {
		t.Fatal("resumed daemon would accept an overlapping rollout")
	}
	runTicks(t, c, postTicks)
	if got := fingerprintExport(t, c); got != want {
		t.Fatal("resumed rollout diverges from uninterrupted run")
	}
	st = c.Status()
	if st.RolloutsPromoted != wantSt.RolloutsPromoted || st.ActiveDesign != wantSt.ActiveDesign {
		t.Fatalf("resumed rollout outcome %+v, want %+v", st, wantSt)
	}
}

// TestRolloutDeterministicAcrossWorkers: the rollout controller lives
// in the reduce, but its swaps change what the parallel advance does —
// the full export must stay identical at Workers 1 and 4 through a
// complete rollout.
func TestRolloutDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for i, workers := range []int{1, 4} {
		cfg := rolloutTestConfig(t, 71)
		cfg.Watchdog.RateThreshold = 1e9
		cfg.Workers = workers
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runTicks(t, d, 3)
		mustStartRollout(t, d, policy.Optimized().String())
		runTicks(t, d, 12)
		if st := d.Status(); st.RolloutsPromoted != 1 {
			t.Fatalf("Workers=%d did not promote: %+v", workers, st)
		}
		got := fingerprintExport(t, d)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("Workers=%d rollout export diverges from Workers=1", workers)
		}
		d.Close()
	}
}
