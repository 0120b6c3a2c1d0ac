// Checkpoint/restore for the daemon: a manifest blob (tick position,
// sketches, series ring, watchdog and alert state) plus one blob per
// machine (the checkpoint's tick, the churn cursor and tick deltas, then
// the machine runtime's blob). A daemon restored from these continues
// bit-identically to one that was never stopped — the fleet runner's
// contract, lifted to the whole control plane.
package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wsmalloc/internal/snapshot"
)

// manifestName is the daemon-level blob; machine blobs sit next to it.
const manifestName = "daemon.ckpt"

// fingerprint canonically names the run a checkpoint belongs to; a
// mismatch means the checkpoint directory holds a different run and
// must not be restored into this one.
func (d *Daemon) fingerprint() string {
	fp := fmt.Sprintf("machines=%d sample=%g min=%d seed=%#x tick=%d diurnal=%d churn=%g oom=%v design=%q observe=%v",
		d.cfg.Machines, d.cfg.SampleFraction, d.cfg.MinMachines, d.cfg.Seed,
		d.cfg.TickNs, d.cfg.DiurnalPeriodNs, d.cfg.ChurnPerTick,
		d.cfg.RestartOnOOM, d.cfg.Design, d.cfg.Observe)
	// Rollout staging geometry is part of the run's identity: a resumed
	// daemon with different stage fractions or bake lengths would steer
	// an in-flight (or future) rollout differently.
	fp += fmt.Sprintf(" rollout=fracs:%v,ticks:%d,settle:%d,th:%g,min:%g",
		d.cfg.Rollout.StageFracs, d.cfg.Rollout.StageTicks, d.cfg.Rollout.SettleTicks,
		d.cfg.Rollout.PromoteThreshold, d.cfg.Rollout.MinRate)
	if d.cfg.GWP.Enabled {
		// Collection geometry changes what every machine simulates (the
		// attached profiler) and what the warehouse holds, so it is part
		// of the run's identity. Disabled runs keep the old fingerprint.
		fp += " " + d.cfg.GWP.Fingerprint()
	}
	return fp
}

// wdState is the watchdog's serialized form (JSON: it is small,
// map-shaped state that json round-trips exactly — float64 bit patterns
// survive because every value is exported/imported via the same
// encoding path both ways).
type wdState struct {
	Prev     map[string]float64   `json:"prev"`
	Hist     map[string][]float64 `json:"hist"`
	Alerting map[string]int       `json:"alerting"`
}

// Checkpoint atomically persists the manifest and every machine blob.
// Safe to call between ticks only (the run loop and tests do).
func (d *Daemon) Checkpoint() error {
	if d.cfg.CheckpointDir == "" {
		return fmt.Errorf("daemon: no checkpoint directory configured")
	}
	start := time.Now()
	var written int64
	for i, ms := range d.machines {
		blob := d.encodeMember(ms)
		if err := snapshot.WriteFileAtomic(d.machinePath(i), blob); err != nil {
			return fmt.Errorf("daemon: checkpoint machine %d: %w", ms.rt.Desc.ID, err)
		}
		written += int64(len(blob))
	}
	blob, err := d.encodeManifest()
	if err != nil {
		return err
	}
	// The manifest is written last: its presence implies a complete,
	// consistent machine-blob set.
	if err := snapshot.WriteFileAtomic(filepath.Join(d.cfg.CheckpointDir, manifestName), blob); err != nil {
		return fmt.Errorf("daemon: checkpoint manifest: %w", err)
	}
	d.lastCheckpointTick = d.tick
	d.lastCheckpointMs = float64(time.Since(start).Microseconds()) / 1e3
	d.lastCheckpointBytes = written + int64(len(blob))
	return nil
}

func (d *Daemon) machinePath(ord int) string {
	return filepath.Join(d.cfg.CheckpointDir, fmt.Sprintf("m%04d.ckpt", ord))
}

// encodeManifest and encodeMember write into the daemon's one reused
// encoder, so each returned blob is valid only until the next encode.
func (d *Daemon) encodeManifest() ([]byte, error) {
	e := &d.enc
	e.Reset()
	e.Section("daemon.manifest")
	e.String(d.fingerprint())
	e.I64(d.tick)
	e.I64(d.virtualNs)
	e.I64(d.alertSeq)
	e.Int(d.burstTicks)
	e.F64(d.burstFrac)
	e.String(d.activeDesign)
	e.I64(d.rolloutsPromoted)
	e.I64(d.rolloutsRolledBack)
	rb, err := json.Marshal(d.ro.state())
	if err != nil {
		return nil, fmt.Errorf("daemon: marshal rollout: %w", err)
	}
	e.Bytes(rb)
	e.Int(len(d.machines))
	e.Len(len(d.sketches))
	for _, sk := range d.sketches {
		sk.EncodeState(e)
	}
	d.ring.EncodeState(e)
	wb, err := json.Marshal(wdState{Prev: d.wd.prev, Hist: d.wd.hist, Alerting: d.wd.alerting})
	if err != nil {
		return nil, fmt.Errorf("daemon: marshal watchdog: %w", err)
	}
	e.Bytes(wb)
	ab, err := json.Marshal(d.alerts.dump())
	if err != nil {
		return nil, fmt.Errorf("daemon: marshal alerts: %w", err)
	}
	e.Bytes(ab)
	return e.Finish(), nil
}

// encodeMember writes one machine blob, stamped with the tick of the
// checkpoint it belongs to (the manifest's tick).
func (d *Daemon) encodeMember(ms *member) []byte {
	e := &d.enc
	e.Reset()
	e.Section("daemon.machine")
	e.I64(d.tick)
	e.Bool(ms.started)
	e.I64(ms.prevOps)
	e.F64(ms.prevMallocNs)
	ms.churn.EncodeState(e)
	ms.rt.EncodeState(e)
	return e.Finish()
}

// decodeMember restores one machine blob into a freshly built member.
// A blob stamped with any tick but the restored manifest's is left over
// from an interrupted later checkpoint and refused. The stamp is the
// tick, not the driver's clock: a stalled machine lags its tick.
func (d *Daemon) decodeMember(blob []byte, ms *member) error {
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		return err
	}
	dec.Section("daemon.machine")
	if stamp := dec.I64(); dec.Err() == nil && stamp != d.tick {
		return fmt.Errorf("machine blob belongs to the checkpoint of tick %d, the manifest to tick %d "+
			"(a checkpoint was interrupted; the directory mixes two generations)", stamp, d.tick)
	}
	ms.started = dec.Bool()
	ms.prevOps = dec.I64()
	ms.prevMallocNs = dec.F64()
	ms.churn.DecodeState(dec)
	return ms.rt.DecodeState(dec)
}

// restore loads the manifest and every machine blob written by
// Checkpoint into the freshly constructed daemon.
func (d *Daemon) restore() error {
	path := filepath.Join(d.cfg.CheckpointDir, manifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("daemon: resume: %w", err)
	}
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		return fmt.Errorf("daemon: resume: %w", err)
	}
	dec.Section("daemon.manifest")
	if got := dec.String(); dec.Err() == nil && got != d.fingerprint() {
		return fmt.Errorf("daemon: checkpoint belongs to a different run:\n  blob: %s\n  want: %s", got, d.fingerprint())
	}
	d.tick = dec.I64()
	d.virtualNs = dec.I64()
	d.alertSeq = dec.I64()
	d.burstTicks = dec.Int()
	d.burstFrac = dec.F64()
	d.activeDesign = dec.String()
	d.rolloutsPromoted = dec.I64()
	d.rolloutsRolledBack = dec.I64()
	rb := dec.Bytes()
	if dec.Err() == nil {
		var rs *roState
		if err := json.Unmarshal(rb, &rs); err != nil {
			return fmt.Errorf("daemon: unmarshal rollout: %w", err)
		}
		d.ro = rs.rollout()
		d.rolloutBusy.Store(d.ro != nil)
	}
	if n := dec.Int(); dec.Err() == nil && n != len(d.machines) {
		return fmt.Errorf("daemon: checkpoint has %d machines, this run enrols %d", n, len(d.machines))
	}
	if n := dec.Len(8); dec.Err() == nil && n != len(d.sketches) {
		return fmt.Errorf("daemon: checkpoint has %d sketches, this build expects %d", n, len(d.sketches))
	}
	for _, sk := range d.sketches {
		sk.DecodeState(dec)
	}
	d.ring.DecodeState(dec)
	wb := dec.Bytes()
	ab := dec.Bytes()
	if dec.Err() != nil {
		return dec.Err()
	}
	var ws wdState
	if err := json.Unmarshal(wb, &ws); err != nil {
		return fmt.Errorf("daemon: unmarshal watchdog: %w", err)
	}
	d.wd.prev = ws.Prev
	if ws.Hist != nil {
		d.wd.hist = ws.Hist
	}
	if ws.Alerting != nil {
		d.wd.alerting = ws.Alerting
	}
	var ad AlertDump
	if err := json.Unmarshal(ab, &ad); err != nil {
		return fmt.Errorf("daemon: unmarshal alerts: %w", err)
	}
	d.alerts.restore(ad)

	for i, ms := range d.machines {
		mb, err := os.ReadFile(d.machinePath(i))
		if err == nil {
			err = d.decodeMember(mb, ms)
		}
		if err != nil {
			return fmt.Errorf("daemon: resume machine %d: %w", ms.rt.Desc.ID, err)
		}
	}
	d.lastCheckpointTick = d.tick
	return nil
}
