// The staged rollout controller: the paper's 1%-experiment methodology
// turned into a control-plane operation. An admin request names a
// candidate design point; the controller swaps it onto a
// seed-deterministic 1% of the enrolled machines (live, via
// core.ApplyDesign — no restarts), bakes it for a stage, gates
// promotion on a profdiff comparison of the candidate group's watched
// miss/mapping rates against the untouched control group, and widens
// the candidate prefix 1% → 10% → 100% while the gate keeps passing.
// Any watchdog regression while the rollout is live — or a failed
// promotion gate — rolls every candidate machine back to the exact
// prior design and raises a structured "rollback" alert; a full-fleet
// bake that stays healthy promotes the candidate to the daemon's
// active design and raises "promotion".
//
// All rollout state is owned by the tick loop (requests arrive through
// the admin pending slot) and is serialized in the checkpoint manifest,
// so a daemon killed mid-rollout resumes the rollout bit-identically.
package daemon

import (
	"fmt"
	"sort"

	"wsmalloc/internal/policy"
	"wsmalloc/internal/profdiff"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/telemetry"
)

// rolloutSalt decorrelates the machine-assignment permutation from the
// churn and workload streams derived from the same seed.
const rolloutSalt = 0x1badb002c0de

// RolloutConfig tunes the staged rollout controller.
type RolloutConfig struct {
	// StageFracs are the fleet fractions of the successive stages; the
	// candidate set at each stage is a prefix of one seed-deterministic
	// permutation, so every stage's machines are a superset of the
	// previous stage's. A final 1.0 stage is appended if missing.
	StageFracs []float64
	// StageTicks is how many healthy ticks each stage bakes before the
	// promotion gate runs.
	StageTicks int
	// SettleTicks are gate-free ticks at the start of every stage: a
	// live swap drains the swapped machines' caches, and the resulting
	// one-off cold-cache transient must neither feed the promotion
	// baseline nor count as a regression. Stage baselines are captured
	// when the settle window closes.
	SettleTicks int
	// PromoteThreshold is the maximum relative worsening the promotion
	// gate tolerates, measured as a difference-in-differences: each
	// group's stage growth of a watched counter relative to that
	// group's own pre-stage cumulative level, candidate vs control.
	// 0.5 means the candidate group's growth may exceed control's by
	// at most 50% on any watched metric.
	PromoteThreshold float64
	// MinRate suppresses gate decisions on rates whose control-group
	// per-machine stage total is below MinRate*StageTicks — relative
	// change over a near-zero base is noise, same as the watchdog rule.
	MinRate float64
}

// DefaultRolloutConfig is the paper-shaped staging: 1% canary, 10%
// expansion, full-fleet bake.
func DefaultRolloutConfig() RolloutConfig {
	return RolloutConfig{
		StageFracs:       []float64{0.01, 0.10, 1.0},
		StageTicks:       8,
		SettleTicks:      2,
		PromoteThreshold: 0.5,
		MinRate:          1,
	}
}

// withDefaults fills zero fields and forces a terminal 100% stage.
func (c RolloutConfig) withDefaults() RolloutConfig {
	def := DefaultRolloutConfig()
	if len(c.StageFracs) == 0 {
		c.StageFracs = def.StageFracs
	}
	if c.StageFracs[len(c.StageFracs)-1] < 1 {
		c.StageFracs = append(append([]float64(nil), c.StageFracs...), 1.0)
	}
	if c.StageTicks <= 0 {
		c.StageTicks = def.StageTicks
	}
	if c.SettleTicks < 0 {
		c.SettleTicks = def.SettleTicks
	}
	if c.PromoteThreshold <= 0 {
		c.PromoteThreshold = def.PromoteThreshold
	}
	if c.MinRate <= 0 {
		c.MinRate = def.MinRate
	}
	return c
}

// rollout is one in-flight staged rollout. Only the tick loop touches
// it; the HTTP surface reads the copy publishTick exports.
type rollout struct {
	// design is the candidate (canonical form); prior is the design
	// every candidate machine reverts to on rollback — the fleet's
	// effective design when the rollout began.
	design string
	prior  string
	// perm is the seed-deterministic machine-ordinal permutation;
	// members is the candidate prefix length at the current stage.
	perm    []int
	members int
	// stage indexes StageFracs; stageTick counts post-settle baked
	// ticks; settleLeft counts down the gate-free window.
	stage      int
	stageTick  int64
	settleLeft int
	// baseCand/baseCtrl are each group's cumulative watched-rate sums
	// at the moment the settle window closed, the promotion gate's
	// before-side.
	baseCand profdiff.Metrics
	baseCtrl profdiff.Metrics
}

// roState is the rollout's checkpoint form (JSON inside the manifest —
// small map-shaped state, same rationale as the watchdog's).
type roState struct {
	Design    string             `json:"design"`
	Prior     string             `json:"prior"`
	Perm      []int              `json:"perm"`
	Members   int                `json:"members"`
	Stage     int                `json:"stage"`
	StageTick int64              `json:"stage_tick"`
	Settle    int                `json:"settle_left"`
	BaseCand  map[string]float64 `json:"base_cand"`
	BaseCtrl  map[string]float64 `json:"base_ctrl"`
}

func (ro *rollout) state() *roState {
	if ro == nil {
		return nil
	}
	return &roState{
		Design: ro.design, Prior: ro.prior, Perm: ro.perm,
		Members: ro.members, Stage: ro.stage, StageTick: ro.stageTick,
		Settle: ro.settleLeft, BaseCand: ro.baseCand, BaseCtrl: ro.baseCtrl,
	}
}

func (s *roState) rollout() *rollout {
	if s == nil {
		return nil
	}
	return &rollout{
		design: s.Design, prior: s.Prior, perm: s.Perm,
		members: s.Members, stage: s.Stage, stageTick: s.StageTick,
		settleLeft: s.Settle, baseCand: s.BaseCand, baseCtrl: s.BaseCtrl,
	}
}

// effectiveDesign is the design point in force fleet-wide: the last
// promoted candidate, or the construction design before any promotion.
// Tick-loop state; HTTP readers get it from the published status.
func (d *Daemon) effectiveDesign() string {
	if d.activeDesign != "" {
		return d.activeDesign
	}
	return d.cfg.Design
}

// StartRollout validates a candidate design point and schedules the
// staged rollout at the next tick boundary. Rejections are synchronous:
// an unparseable candidate (the error names the offending tier and its
// registered policies), an already-active rollout, a daemon without the
// observability pipeline (the gate needs telemetry), or a base design
// that is not itself a registry point (rollback must have a target).
func (d *Daemon) StartRollout(design string) (string, error) {
	if !d.cfg.Observe {
		return "", fmt.Errorf("rollout needs the observability pipeline (daemon runs with Observe off)")
	}
	dp, err := policy.Parse(design)
	if err != nil {
		return "", fmt.Errorf("candidate design %q: %w", design, err)
	}
	if _, err := policy.Parse(d.cfg.Design); err != nil {
		return "", fmt.Errorf("base design %q is not a registry design point (%v): rollback would have no target", d.cfg.Design, err)
	}
	if !d.rolloutBusy.CompareAndSwap(false, true) {
		return "", fmt.Errorf("a rollout is already active (one at a time; wait for promotion or rollback)")
	}
	d.adminMu.Lock()
	d.pendingRollout = dp.String()
	d.adminMu.Unlock()
	rc := d.cfg.Rollout
	return fmt.Sprintf("rollout scheduled: %s through %v of %d machines, %d+%d ticks per stage",
		dp.String(), rc.StageFracs, len(d.machines), rc.SettleTicks, rc.StageTicks), nil
}

// rolloutPerm is the seed-deterministic machine assignment: one
// Fisher-Yates permutation of the enrolled ordinals, shared by every
// stage (stages are nested prefixes of it).
func rolloutPerm(n int, seed uint64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r := rng.New(seed ^ rolloutSalt)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// stageSize maps a stage fraction to a candidate count: ceil(frac*N),
// floored at one machine, capped at the fleet.
func stageSize(frac float64, n int) int {
	s := int(frac * float64(n))
	if float64(s) < frac*float64(n) {
		s++
	}
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	return s
}

// beginRollout installs a pending rollout at a tick boundary: the
// candidate design swaps onto the first-stage prefix before the tick's
// advance, so the stage measures whole ticks under the candidate.
func (d *Daemon) beginRollout(design string) {
	ro := &rollout{
		design:     design,
		prior:      d.effectiveDesign(),
		perm:       rolloutPerm(len(d.machines), d.cfg.Seed),
		settleLeft: d.cfg.Rollout.SettleTicks,
	}
	ro.members = stageSize(d.cfg.Rollout.StageFracs[0], len(d.machines))
	for _, ord := range ro.perm[:ro.members] {
		d.applyMachineDesign(d.machines[ord], design)
	}
	d.ro = ro
	d.emitRolloutAlert(Alert{
		Kind: "rollout-stage", Metric: "rollout", Mode: "rollout",
		Design: design, Stage: d.stageLabel(ro),
	})
	if ro.settleLeft == 0 {
		ro.baseCand, ro.baseCtrl = d.groupRates(ro)
	}
}

// applyMachineDesign live-swaps one machine and pins the design so cold
// restarts (churn, OOM, bursts) come back up under it.
func (d *Daemon) applyMachineDesign(ms *member, design string) {
	if err := ms.rt.Pin(design); err != nil {
		// Designs are validated before they reach the tick loop.
		panic(fmt.Sprintf("daemon: apply design %q to machine %d: %v", design, ms.rt.Desc.ID, err))
	}
}

// stageLabel renders the current stage for alerts and /statusz, e.g.
// "1/3 (1%: 2 of 128 machines)".
func (d *Daemon) stageLabel(ro *rollout) string {
	frac := d.cfg.Rollout.StageFracs[ro.stage]
	return fmt.Sprintf("%d/%d (%g%%: %d of %d machines)",
		ro.stage+1, len(d.cfg.Rollout.StageFracs), frac*100, ro.members, len(d.machines))
}

// groupRates sums the watchdog's watched cumulative rates over the
// candidate prefix and the control remainder, one pass per group in
// permutation order (fixed order — float sums stay bit-identical).
func (d *Daemon) groupRates(ro *rollout) (cand, ctrl profdiff.Metrics) {
	sum := func(ords []int) profdiff.Metrics {
		out := profdiff.Metrics{}
		for _, ord := range ords {
			for name, v := range d.machineRates(d.machines[ord]) {
				out[name] += v
			}
		}
		return out
	}
	return sum(ro.perm[:ro.members]), sum(ro.perm[ro.members:])
}

// machineRates flattens one machine's carry+live registries down to the
// watchdog's watched rate counters.
func (d *Daemon) machineRates(ms *member) profdiff.Metrics {
	reg := telemetry.NewRegistry()
	ms.rt.FoldTelemetry(reg)
	flat := profdiff.FlattenSnapshots(reg.Snapshot("", d.virtualNs))
	out := profdiff.Metrics{}
	for _, name := range d.cfg.Watchdog.Rates {
		if v, ok := flat[name]; ok {
			out[name] = v
		}
	}
	return out
}

// rolloutStep advances the rollout state machine by one observed tick.
// It runs in the reduce, after the watchdog, so this tick's regression
// alerts and alerting set are current; any machine swaps it performs
// happen at the tick boundary, before the next advance.
func (d *Daemon) rolloutStep(wdAlerts []Alert) {
	ro := d.ro
	if ro == nil {
		return
	}
	if ro.settleLeft > 0 {
		// Gate-free cold-swap window: the swap transient may not feed
		// the baseline or trip a rollback.
		ro.settleLeft--
		if ro.settleLeft == 0 {
			ro.baseCand, ro.baseCtrl = d.groupRates(ro)
		}
		return
	}

	// Any active watchdog regression while a rollout is live rolls the
	// candidate back immediately — the watchdog is the fleet's blunt
	// safety net; the per-stage gate is the precise one.
	if d.wd.activeCount() > 0 {
		trigger := Alert{Metric: d.firstAlertingMetric()}
		for _, a := range wdAlerts {
			if a.Kind == "regression" {
				trigger = a
				break
			}
		}
		d.rollbackRollout(trigger)
		return
	}

	ro.stageTick++
	if ro.stageTick < int64(d.cfg.Rollout.StageTicks) {
		return
	}

	// Stage end. With a control group present, gate on the profdiff of
	// per-machine-normalized stage rates; the full-fleet bake stage has
	// no control group and is gated by the watchdog alone.
	if ro.members < len(ro.perm) {
		if bad, failed := d.gateFails(ro); failed {
			d.rollbackRollout(Alert{
				Metric: bad.Name, Baseline: bad.A, Current: bad.B,
				RelChange: bad.Rel(), Threshold: d.cfg.Rollout.PromoteThreshold,
			})
			return
		}
		d.advanceStage(ro)
		return
	}
	d.promoteRollout(ro)
}

// gateFails runs the promotion gate as a difference-in-differences:
// each group's stage growth of every watched cumulative counter,
// relative to that group's own pre-stage cumulative level, compared
// control (A) vs candidate (B) with the profdiff threshold logic.
// Normalizing by the group's own history cancels app-mix bias — a
// canary machine that inherently runs 2x hotter on a metric than the
// fleet average also has a 2x cumulative base, so only a *change in
// its own trajectory* registers. Only worsenings block — a candidate
// that lowers a miss rate is never penalized for the relative change —
// and metrics whose control group moved less than MinRate events per
// machine-tick over the stage are skipped as noise.
func (d *Daemon) gateFails(ro *rollout) (profdiff.Delta, bool) {
	candNow, ctrlNow := d.groupRates(ro)
	nCtrl := float64(len(ro.perm) - ro.members)
	cand := profdiff.Metrics{}
	ctrl := profdiff.Metrics{}
	for name, v := range candNow {
		if base := ro.baseCand[name]; base > 0 {
			cand[name] = (v - base) / base
		}
	}
	for name, v := range ctrlNow {
		if base := ro.baseCtrl[name]; base > 0 {
			ctrl[name] = (v - base) / base
		}
	}
	floor := d.cfg.Rollout.MinRate * float64(d.cfg.Rollout.StageTicks)
	for _, dl := range profdiff.Exceeds(profdiff.Diff(ctrl, cand), d.cfg.Rollout.PromoteThreshold) {
		if !dl.InA || !dl.InB || dl.B <= dl.A {
			continue
		}
		if (ctrlNow[dl.Name]-ro.baseCtrl[dl.Name])/nCtrl < floor {
			continue
		}
		return dl, true
	}
	return profdiff.Delta{}, false
}

// advanceStage widens the candidate prefix to the next fraction and
// restarts the settle/bake cycle.
func (d *Daemon) advanceStage(ro *rollout) {
	ro.stage++
	next := stageSize(d.cfg.Rollout.StageFracs[ro.stage], len(ro.perm))
	for _, ord := range ro.perm[ro.members:next] {
		d.applyMachineDesign(d.machines[ord], ro.design)
	}
	ro.members = next
	ro.stageTick = 0
	ro.settleLeft = d.cfg.Rollout.SettleTicks
	d.emitRolloutAlert(Alert{
		Kind: "rollout-stage", Metric: "rollout", Mode: "rollout",
		Design: ro.design, Stage: d.stageLabel(ro),
	})
	if ro.settleLeft == 0 {
		ro.baseCand, ro.baseCtrl = d.groupRates(ro)
	}
}

// promoteRollout completes a rollout whose full-fleet bake stayed
// healthy: the candidate becomes the daemon's active design.
func (d *Daemon) promoteRollout(ro *rollout) {
	d.activeDesign = ro.design
	d.rolloutsPromoted++
	d.emitRolloutAlert(Alert{
		Kind: "promotion", Metric: "rollout", Mode: "rollout",
		Design: ro.design, Stage: d.stageLabel(ro),
	})
	d.ro = nil
	d.rolloutBusy.Store(false)
}

// rollbackRollout reverts every candidate machine to the exact prior
// design (live swap plus restart pin) and raises the rollback alert.
// The trigger carries the regressing metric and its numbers when known.
func (d *Daemon) rollbackRollout(trigger Alert) {
	ro := d.ro
	for _, ord := range ro.perm[:ro.members] {
		d.applyMachineDesign(d.machines[ord], ro.prior)
	}
	d.rolloutsRolledBack++
	d.emitRolloutAlert(Alert{
		Kind: "rollback", Metric: trigger.Metric, Mode: "rollout",
		Baseline: trigger.Baseline, Current: trigger.Current,
		RelChange: trigger.RelChange, Threshold: trigger.Threshold,
		Design: ro.design, Stage: d.stageLabel(ro),
	})
	d.ro = nil
	d.rolloutBusy.Store(false)
}

// firstAlertingMetric names the lexically first metric currently in
// regression (deterministic over the watchdog's map).
func (d *Daemon) firstAlertingMetric() string {
	names := make([]string, 0, len(d.wd.alerting))
	for name := range d.wd.alerting {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "watchdog"
	}
	return names[0]
}

// emitRolloutAlert stamps the daemon's alert sequence, tick position
// and profile-window exemplar onto a rollout lifecycle alert and fans
// it out like any watchdog alert.
func (d *Daemon) emitRolloutAlert(a Alert) {
	d.alertSeq++
	a.Seq = d.alertSeq
	a.Tick = d.tick
	a.NowNs = d.virtualNs
	a.WindowID = d.lastWindow
	d.emitAlert(a)
}
