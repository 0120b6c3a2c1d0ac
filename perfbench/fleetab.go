package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"time"

	"wsmalloc/internal/core"
	"wsmalloc/internal/experiments"
	"wsmalloc/internal/fleet"
	"wsmalloc/internal/policy"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/workload"
)

// The tracked sweep: `fleet-ab -machines 400 -sample 0.04
// -duration-ms 100` (16 enrolled machines, baseline vs optimized).
const (
	fleetMachines = 400
	fleetSample   = 0.04
	fleetDuration = 100 * workload.Millisecond
	// fleetCatalogSeed fixes the catalog (which app and platform each
	// machine runs) to the tracked sweep's default -seed 1; --seed
	// re-seeds each enrolled machine's workload stream. Drawing the
	// catalog from --seed as well changed the enrolled app mix, and the
	// sweep's simulated mallocs ranged 16.0M-20.4M over seeds 1-5; with
	// the catalog fixed they ranged 16.74M-17.09M.
	fleetCatalogSeed = 1
	// telemetryProbeMachines is how many enrolled machines the
	// telemetry on/off probe runs in both modes.
	telemetryProbeMachines = 4
)

// fleetAB is the tracked fleet A/B sweep. One unit runs every enrolled
// machine's control/experiment pair through fleet.ABTestErr, one
// machine per call, so a failing machine is counted on its own.
type fleetAB struct {
	seed     uint64
	dir      string
	machines []fleet.Machine
	control  core.Config
	exp      core.Config
	opts     fleet.ABOptions
}

func newFleetAB(seed uint64, dir string) *fleetAB {
	opts := fleet.DefaultABOptions()
	opts.SampleFraction = 1
	opts.MinMachines = 1
	opts.DurationNs = fleetDuration
	opts.Workers = 1
	opts.ControlDesign = policy.Baseline().String()
	opts.ExperimentDesign = policy.Optimized().String()
	return &fleetAB{
		seed:    seed,
		dir:     dir,
		control: core.BaselineConfig(),
		exp:     core.OptimizedConfig(),
		opts:    opts,
	}
}

// setup builds the catalog and enrols the machines the sweep samples
// (every 25th of 400), re-seeding their streams from the run's seed.
func (b *fleetAB) setup(tr *tracer) error {
	tr.begin("fleet.New")
	f := fleet.New(fleetMachines, fleetCatalogSeed)
	tr.end()
	n := int(float64(fleetMachines) * fleetSample)
	stride := fleetMachines / n
	r := rng.New(b.seed)
	b.machines = b.machines[:0]
	for i := 0; i < n; i++ {
		m := f.Machines[i*stride]
		m.Seed ^= r.Uint64()
		b.machines = append(b.machines, m)
	}
	return nil
}

func (b *fleetAB) teardown() {}

// pair runs one machine's A/B under opts. A panic counts as an error.
func (b *fleetAB) pair(m fleet.Machine, opts fleet.ABOptions) (res fleet.ABResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("machine %d panicked: %v", m.ID, p)
		}
	}()
	one := &fleet.Fleet{Machines: []fleet.Machine{m}}
	return one.ABTestErr(b.control, b.exp, opts)
}

// checkRow is the output check: the machine produced exactly its own
// row, with finite deltas and no failed allocation or audit violation.
func checkRow(m fleet.Machine, res fleet.ABResult) error {
	if res.Fleet.Machines != 1 || len(res.PerApp) != 1 || res.PerApp[0].App != m.App.Name {
		return fmt.Errorf("machine %d: want one %s row, got %d machines, %d rows", m.ID, m.App.Name, res.Fleet.Machines, len(res.PerApp))
	}
	r := res.Fleet
	for _, v := range []float64{r.ThroughputPct, r.MemoryPct, r.CPIPct, r.LLCBefore, r.LLCAfter, r.WalkBeforePct, r.WalkAfterPct} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("machine %d: non-finite delta in %+v", m.ID, r)
		}
	}
	if c := res.Chaos; c.AllocFailures != 0 || c.Violations != 0 || c.OOMErrors != 0 {
		return fmt.Errorf("machine %d: %d alloc failures, %d OOM errors, %d violations", m.ID, c.AllocFailures, c.OOMErrors, c.Violations)
	}
	return nil
}

// unit runs the sweep. Each machine pair is two machine runs; a pair
// that errors, panics or fails its row check counts both as failed.
func (b *fleetAB) unit(tr *tracer, clk *refClock) outcome {
	var o outcome
	h := sha256.New()
	for _, m := range b.machines {
		tr.begin("fleet.ABTestErr")
		res, err := b.pair(m, b.opts)
		tr.end()
		clk.sample()
		o.attempted += 2
		if err == nil {
			err = checkRow(m, res)
		}
		if err != nil {
			fmt.Println("failed:", err)
			o.failed += 2
			continue
		}
		fmt.Fprintf(h, "%d %d %+v\n", m.ID, m.Seed, res.Fleet)
	}
	o.digest = "rows=" + sum(h)
	return o
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:12]) }

// probe adds the fleet, telemetry and experiments layer metrics, then
// the shared layer probes over the enrolled machines and both arms.
func (b *fleetAB) probe(tr *tracer, m metrics) error {
	// Spans around fleet.RunMachineOpts: the same machine runs the
	// unit's A/B makes, with the options fleet's pair runner builds.
	var events float64
	for _, mc := range b.machines {
		for _, cfg := range []core.Config{b.control, b.exp} {
			wopts := workload.DefaultOptions(mc.Seed)
			wopts.Duration = b.opts.DurationNs
			wopts.TimeWarpGamma = b.opts.TimeWarpGamma
			tr.begin("fleet.RunMachineOpts")
			rm := fleet.RunMachineOpts(mc, cfg, wopts)
			tr.end()
			if rm.Result.AllocFailures != 0 {
				return fmt.Errorf("machine %d: %d alloc failures", mc.ID, rm.Result.AllocFailures)
			}
			events += float64(rm.Result.Stats.Mallocs)
		}
	}
	runs := tr.durations("fleet.RunMachineOpts")
	m.set("workload.events", events, "count")
	m.set("fleet.machine_runs", float64(len(runs)), "count")
	m.set("fleet.machine_run_ms_p50", quantile(runs, 0.5), "ms")
	m.set("fleet.machine_run_ms_p90", quantile(runs, 0.9), "ms")

	if err := b.telemetryProbe(tr, m); err != nil {
		return err
	}
	if err := b.experimentsProbe(tr, m); err != nil {
		return err
	}
	return layerProbes(tr, m, b.machines, []core.Config{b.control, b.exp}, b.opts.TimeWarpGamma)
}

// telemetryProbe times the first enrolled machines' A/B with telemetry
// off and on, alternating which goes first, and reports on/off.
func (b *fleetAB) telemetryProbe(tr *tracer, m metrics) error {
	on := b.opts
	on.Telemetry = telemetry.Config{Enabled: true}
	var tOff, tOn time.Duration
	for i, mc := range b.machines[:telemetryProbeMachines] {
		order := []bool{false, true}
		if i%2 == 1 {
			order = []bool{true, false}
		}
		for _, enabled := range order {
			opts, name := b.opts, "telemetry.off"
			if enabled {
				opts, name = on, "telemetry.on"
			}
			tr.begin(name)
			res, err := b.pair(mc, opts)
			d := tr.end()
			if err == nil {
				err = checkRow(mc, res)
			}
			if err != nil {
				return fmt.Errorf("telemetry probe: %w", err)
			}
			if enabled {
				tOn += d
			} else {
				tOff += d
			}
		}
	}
	m.set("telemetry.on_off_ratio", float64(tOn)/float64(tOff), "ratio")
	return nil
}

// experimentsProbe runs the design-space experiment as a direct sweep
// over its default 20-point grid at smoke scale, one worker, and prints
// the digest of the JSON leaderboard it writes.
func (b *fleetAB) experimentsProbe(tr *tracer, m metrics) error {
	grid := experiments.DefaultDesignGrid()
	base := filepath.Join(b.dir, "leaderboard")
	experiments.SetWorkers(1)
	experiments.SetDesignSpace(grid, base)
	defer experiments.SetDesignSpace(nil, "")
	tr.begin("experiments.DesignSpace")
	rep := experiments.DesignSpace(b.seed, experiments.ScaleSmoke)
	d := tr.end()
	if rep.Failed {
		return fmt.Errorf("designspace probe failed:\n%s", rep)
	}
	blob, err := os.ReadFile(base + ".json")
	if err != nil {
		return fmt.Errorf("designspace probe: %w", err)
	}
	h := sha256.New()
	h.Write(blob)
	fmt.Printf("digest leaderboard %s\n", sum(h))
	m.set("experiments.points", float64(len(grid)), "count")
	m.set("experiments.point_ms", float64(d)/1e6/float64(len(grid)), "ms")
	return nil
}
