// Package machine is the runtime of one simulated warehouse machine. It
// owns what every machine lifecycle shares — the cold restart that
// loses every cache tier but keeps the workload's place, the run loop
// that absorbs OOM kills, and the machine blob — so the fleet runner,
// the daemon and the lifecycle experiment differ only in kill policy.
package machine

import (
	"fmt"

	"wsmalloc/internal/core"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/telemetry"
	"wsmalloc/internal/topology"
	"wsmalloc/internal/workload"
)

// Desc describes one server: its platform, the application it runs,
// and the seed its workload streams derive from.
type Desc struct {
	ID       int
	Platform topology.Platform
	App      workload.Profile
	Seed     uint64
}

func (d Desc) fingerprint() string {
	return fmt.Sprintf("machine=%d seed=%#x platform=%s app=%s", d.ID, d.Seed, d.Platform.Name, d.App.Name)
}

// Kill names why a process died.
type Kill uint8

const (
	Churn Kill = iota // scheduled: repair, preemption, rescheduling
	OOM               // the allocator refused a malloc (HaltOnAllocFailure)
	Burst             // an injected fault burst
)

// Counters are the machine's kills by cause and the cold restarts that
// followed.
type Counters struct {
	Restarts, ChurnKills, OOMKills, BurstKills int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Restarts += o.Restarts
	c.ChurnKills += o.ChurnKills
	c.OOMKills += o.OOMKills
	c.BurstKills += o.BurstKills
}

// Runtime is one simulated machine and the process it currently runs.
// Not safe for concurrent use.
type Runtime struct {
	Desc Desc
	// OnRestart, when non-nil, runs after every cold restart.
	OnRestart func(why Kill, nowNs int64)

	cfg    core.Config
	topo   *topology.Topology
	design string // pinned design point; "" = the construction config
	alloc  *core.Allocator
	drv    *workload.Driver
	// carry holds the counters and histograms of every process that died.
	carry  *telemetry.Registry
	counts Counters
}

// New builds the machine's first process under cfg and its driver
// under opts. Callbacks in opts should reach the allocator through
// Alloc, which follows restarts.
func New(d Desc, cfg core.Config, opts workload.Options) *Runtime {
	rt := &Runtime{Desc: d, cfg: cfg, topo: topology.New(d.Platform), carry: telemetry.NewRegistry()}
	rt.alloc = core.New(cfg, rt.topo)
	rt.drv = workload.NewDriver(d.App, rt.alloc, opts)
	return rt
}

// Alloc returns the current process's allocator.
func (rt *Runtime) Alloc() *core.Allocator { return rt.alloc }

// Driver returns the workload driver, which survives restarts.
func (rt *Runtime) Driver() *workload.Driver { return rt.drv }

// Counters returns the lifecycle counters.
func (rt *Runtime) Counters() Counters { return rt.counts }

// Design returns the pinned design point ("" = the construction config).
func (rt *Runtime) Design() string { return rt.design }

// Pin live-swaps the allocator to design and keeps it for every later
// cold restart.
func (rt *Runtime) Pin(design string) error {
	if err := rt.alloc.ApplyDesign(design); err != nil {
		return err
	}
	rt.design = design
	return nil
}

// RestartCold kills the current process and counts the kill under why.
// In order: the dying registry's counters and histograms fold into the
// carry registry, a fresh allocator (empty heap, cold caches) comes up
// under the pinned design, and the driver rebinds to it, keeping its
// workload position.
func (rt *Runtime) RestartCold(why Kill) {
	if tel := rt.alloc.Telemetry(); tel != nil {
		tel.FlushGauges() // fold buffered observations before the registry dies
		rt.carry.MergeCumulative(tel.Registry())
	}
	rt.alloc = core.New(rt.cfg, rt.topo)
	if rt.design != "" {
		if err := rt.alloc.ApplyDesign(rt.design); err != nil {
			panic(fmt.Sprintf("machine %d: restart under design %q: %v", rt.Desc.ID, rt.design, err))
		}
	}
	rt.drv.Restart(rt.alloc)
	rt.counts.Restarts++
	switch why {
	case Churn:
		rt.counts.ChurnKills++
	case OOM:
		rt.counts.OOMKills++
	case Burst:
		rt.counts.BurstKills++
	}
	if rt.OnRestart != nil {
		rt.OnRestart(why, rt.drv.Now())
	}
}

// RunUntil advances the machine to virtual time untilNs (0 = the end of
// the run), cold-restarting after each OOM kill up to maxOOM times.
// capped reports one more OOM kill with the budget spent; the driver is
// then left halted at the refused malloc. Otherwise the driver
// finished, reached untilNs, or stopped a replay.
func (rt *Runtime) RunUntil(untilNs int64, maxOOM int) (res workload.Result, capped bool) {
	rt.drv.SetHaltAt(untilNs)
	res = rt.drv.Run()
	for oom := 0; rt.drv.Halted() && rt.drv.HaltReason() == workload.HaltAllocFailure; oom++ {
		if oom >= maxOOM {
			return res, true
		}
		rt.RestartCold(OOM)
		res = rt.drv.Run()
	}
	return res, false
}

// FoldTelemetry merges the machine's cumulative view into into: the
// carry registry, then the live registry with its gauges flushed.
func (rt *Runtime) FoldTelemetry(into *telemetry.Registry) {
	into.Merge(rt.carry)
	if tel := rt.alloc.Telemetry(); tel != nil {
		tel.FlushGauges()
		into.Merge(tel.Registry())
	}
}

// EncodeState appends the machine blob: identity, pinned design,
// counters, carry registry, allocator and driver. Callers wrap it with
// their own policy state.
func (rt *Runtime) EncodeState(e *snapshot.Encoder) {
	e.Section("machine")
	e.String(rt.Desc.fingerprint())
	e.String(rt.design)
	e.I64(rt.counts.Restarts)
	e.I64(rt.counts.ChurnKills)
	e.I64(rt.counts.OOMKills)
	e.I64(rt.counts.BurstKills)
	rt.carry.EncodeState(e)
	rt.alloc.EncodeState(e)
	rt.drv.EncodeState(e)
}

// DecodeState restores a blob written by EncodeState for the same
// machine into a freshly built runtime.
func (rt *Runtime) DecodeState(dec *snapshot.Decoder) error {
	dec.Section("machine")
	if got, want := dec.String(), rt.Desc.fingerprint(); dec.Err() == nil && got != want {
		return fmt.Errorf("machine checkpoint belongs to a different machine:\n  blob: %s\n  want: %s", got, want)
	}
	rt.design = dec.String()
	rt.counts.Restarts = dec.I64()
	rt.counts.ChurnKills = dec.I64()
	rt.counts.OOMKills = dec.I64()
	rt.counts.BurstKills = dec.I64()
	rt.carry.DecodeState(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	if err := rt.alloc.DecodeState(dec); err != nil {
		return err
	}
	return rt.drv.DecodeState(dec)
}
