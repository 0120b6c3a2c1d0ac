package workload

import (
	"wsmalloc/internal/check"
	"wsmalloc/internal/snapshot"
)

// EncodeState serializes the driver's run position: the workload RNG,
// virtual clock, thread count, death wheel (sorted by bucket, in-bucket
// order preserved — frees replay in the exact order the uninterrupted
// run issues them), preloaded resident heap, schedule cursors, and the
// accumulated Result counters. The profile and Options are not
// serialized: the resuming caller reconstructs the driver via NewDriver
// with the same arguments, then overlays this state.
func (d *Driver) EncodeState(e *snapshot.Encoder) {
	e.Section("workload.driver")
	d.r.EncodeState(e)
	e.I64(d.now)
	e.Int(d.threads)
	e.I64(d.wheel.cur)
	e.I64(d.liveCount)
	e.Bool(d.started)
	e.Bool(d.retuned)
	e.I64(d.nextThreadUpdate)
	e.I64(d.nextTick)
	e.I64(d.nextSnapshot)
	e.I64(d.nextAudit)
	e.I64(d.nextCheckpoint)

	d.wheel.encode(e)

	e.Len(len(d.preloaded))
	encodeObjects(e, d.preloaded)

	e.Section("workload.result")
	e.I64(d.res.Ops)
	e.I64(d.res.Frees)
	e.F64(d.res.MallocNs)
	e.I64(d.res.AllocatedBytes)
	e.I64(d.res.AllocFailures)
	e.I64(d.res.Audits)
	e.Len(len(d.res.ThreadSeries))
	for _, n := range d.res.ThreadSeries {
		e.Int(n)
	}
	e.Len(len(d.res.Violations))
	for _, v := range d.res.Violations {
		e.String(v.Tier)
		e.String(string(v.Kind))
		e.String(v.Detail)
	}
}

func encodeObjects(e *snapshot.Encoder, objs []object) {
	for _, o := range objs {
		e.U64(o.addr)
		e.Int(o.size)
	}
}

// DecodeState restores driver state saved by EncodeState into a driver
// freshly built by NewDriver with the same profile, options, and a
// restored (or fresh) allocator.
func (d *Driver) DecodeState(dec *snapshot.Decoder) error {
	dec.Section("workload.driver")
	d.r.DecodeState(dec)
	d.now = dec.I64()
	d.setThreads(dec.Int())
	d.wheel.cur = dec.I64()
	d.liveCount = dec.I64()
	d.started = dec.Bool()
	d.retuned = dec.Bool()
	d.nextThreadUpdate = dec.I64()
	d.nextTick = dec.I64()
	d.nextSnapshot = dec.I64()
	d.nextAudit = dec.I64()
	d.nextCheckpoint = dec.I64()
	if dec.Err() == nil && d.threads < 1 {
		dec.Fail("workload: restored thread count %d", d.threads)
	}

	// A merged far+ring bucket restores into one ring chain; its free
	// order is unchanged.
	wheelObjs := d.wheel.decode(dec)
	if dec.Err() == nil && wheelObjs != d.liveCount {
		dec.Fail("workload: wheel holds %d objects, liveCount says %d", wheelObjs, d.liveCount)
	}

	np := dec.Len(8 + 4)
	d.preloaded = make([]object, 0, np)
	for i := 0; i < np && dec.Err() == nil; i++ {
		d.preloaded = append(d.preloaded, object{addr: dec.U64(), size: dec.Int()})
	}

	dec.Section("workload.result")
	d.res.Ops = dec.I64()
	d.res.Frees = dec.I64()
	d.res.MallocNs = dec.F64()
	d.res.AllocatedBytes = dec.I64()
	d.res.AllocFailures = dec.I64()
	d.res.Audits = dec.I64()
	ns := dec.Len(4)
	d.res.ThreadSeries = make([]int, 0, ns)
	for i := 0; i < ns && dec.Err() == nil; i++ {
		d.res.ThreadSeries = append(d.res.ThreadSeries, dec.Int())
	}
	nv := dec.Len(4 * 3)
	d.res.Violations = nil
	for i := 0; i < nv && dec.Err() == nil; i++ {
		d.res.Violations = append(d.res.Violations, check.Violation{
			Tier:   dec.String(),
			Kind:   check.Kind(dec.String()),
			Detail: dec.String(),
		})
	}
	return dec.Err()
}
