package core

import (
	"wsmalloc/internal/policy"
)

// ApplyDesignPoint retunes a live allocator to a new design point: each
// tier's Swap protocol replaces its policy and re-derives its cached
// state (capacity bounds, domain caches, occupancy-list geometry) from
// the new tier configuration, draining cached objects downward —
// front-end to transfer caches, transfer caches to the central free
// lists — so no object is stranded under stale geometry. The swap order
// follows the drain direction: front, transfer, then the pageheap ahead
// of the central free lists, which re-predict their spans' lifetime
// class under the heap's new filler policy (the heap swap moves no
// spans, so it commutes with the lists' refiling).
//
// Only the four tier configurations change; the tier-independent
// settings (sampling interval, release cadence, telemetry, fault plan)
// keep their construction-time values. The applied design's
// canonical string is recorded for snapshots and telemetry, so a
// checkpoint taken after the swap resumes bit-identically.
func (a *Allocator) ApplyDesignPoint(d policy.DesignPoint) error {
	t, err := ConfigForDesign(d)
	if err != nil {
		return err
	}
	if t.Transfer.Policy.UsesDomains() {
		t.Transfer.NumDomains = a.topo.NumDomains()
	}
	a.front.Swap(t.PerCPU)
	a.transfer.Swap(t.Transfer)
	a.heap.Swap(t.PageHeap)
	for _, l := range a.cfls {
		l.Swap(t.CFL)
	}
	a.cfg.PerCPU = t.PerCPU
	a.cfg.Transfer = t.Transfer
	a.cfg.CFL = t.CFL
	a.cfg.PageHeap = t.PageHeap
	a.design = d.String()
	return nil
}

// ApplyDesign parses a canonical design-point string and applies it
// (the string-typed entry point the workload driver and daemon use, so
// they need not import the policy package).
func (a *Allocator) ApplyDesign(design string) error {
	d, err := policy.Parse(design)
	if err != nil {
		return err
	}
	return a.ApplyDesignPoint(d)
}

// Design returns the canonical string of the design point most recently
// applied mid-run, or "" when the construction-time configuration is
// still in force.
func (a *Allocator) Design() string { return a.design }
