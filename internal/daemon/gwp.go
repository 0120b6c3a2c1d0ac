// Continuous fleet profiling inside the daemon: every
// GWP.CollectEveryTicks ticks the collector deterministically samples a
// rotating fraction of the enrolled machines, captures their profile
// views, fragmentation decomposition and telemetry scalars as one raw
// window, and appends it to the profile warehouse. The window index is
// a pure function of the tick and every capture reads state the
// checkpoint restores bit-identically, so a resumed daemon re-produces
// byte-identical windows — the warehouse inherits the daemon's
// kill/resume contract without any coordination.
package daemon

import (
	"wsmalloc/internal/gwp"
)

// openWarehouse opens (or resumes) the profile warehouse after any
// checkpoint restore, and re-derives the last-collected window ID from
// the restored tick so exemplar gauges and alerts are correct from the
// first post-resume tick.
func (d *Daemon) openWarehouse() error {
	gw, err := gwp.Open(d.cfg.GWP.Dir, d.fingerprint(),
		d.cfg.GWP.Retention, d.cfg.Resume && d.cfg.CheckpointDir != "")
	if err != nil {
		return err
	}
	d.gw = gw
	if idx := d.tick/int64(d.cfg.GWP.CollectEveryTicks) - 1; idx >= 0 {
		d.lastWindow = gwp.WindowID(gwp.TierRaw, idx)
	}
	return nil
}

// collectWindow captures one raw profile window at a collection tick
// (d.tick is a multiple of the window length). Sampled machines are
// visited in enrolment order so every fold inside the window is
// deterministic.
func (d *Daemon) collectWindow() error {
	k := int64(d.cfg.GWP.CollectEveryTicks)
	idx := d.tick/k - 1
	ords := gwp.SampleOrds(d.cfg.Seed, idx, len(d.machines),
		d.cfg.GWP.SampleFraction, d.cfg.GWP.MinPerWindow)
	caps := make([]gwp.Capture, 0, len(ords))
	for _, ord := range ords {
		ms := d.machines[ord]
		desc, st := ms.rt.Desc, ms.lastStats
		var perOp float64
		if ms.tickOps > 0 {
			perOp = ms.tickMallocNs / float64(ms.tickOps)
		}
		caps = append(caps, gwp.Capture{
			Record: gwp.MachineRecord{
				MachineID: desc.ID, Ord: ord, Seed: desc.Seed,
				App: desc.App.Name, Platform: desc.Platform.Name,
				TickOps: ms.tickOps, MallocNsPerOp: perOp,
				HeapBytes:          st.HeapBytes,
				LiveRequestedBytes: st.LiveRequestedBytes,
				LiveRoundedBytes:   st.LiveRoundedBytes,
				FragRatioPPM:       st.FragmentationRatio() * 1e6,
				HugepagePPM:        st.HugepageCoverage * 1e6,
				Restarts:           ms.rt.Counters().Restarts,
			},
			Frag:     ms.rt.Alloc().FragZ(),
			Profiles: ms.rt.Alloc().HeapProfiles(""),
		})
	}
	win := gwp.BuildWindow(gwp.WindowMeta{
		Index:     idx,
		StartTick: d.tick - k + 1, EndTick: d.tick,
		StartNs: d.virtualNs - k*d.cfg.TickNs, EndNs: d.virtualNs,
		Design: d.cfg.Design,
	}, caps)
	if err := d.gw.Append(win); err != nil {
		return err
	}
	d.lastWindow = win.Meta.ID
	return nil
}
