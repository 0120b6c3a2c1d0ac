package workload

import (
	"slices"

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
	e.I64(d.curBucket)
	e.I64(d.liveCount)
	e.Bool(d.started)
	e.Bool(d.retuned)
	e.I64(d.nextThreadUpdate)
	e.I64(d.nextTick)
	e.I64(d.nextSnapshot)
	e.I64(d.nextAudit)
	e.I64(d.nextCheckpoint)

	// Emit one entry per populated bucket in ascending bucket order,
	// each bucket's objects in insertion order: far entries precede ring
	// entries (see the wheel fields), so a bucket held in both is one
	// entry, far part first, and the encoding is identical to the old
	// single-map wheel's. The ring window is walked in bucket order and
	// merged with the sorted far keys, so no bucket is copied.
	far := make([]int64, 0, len(d.wheelFar))
	for b := range d.wheelFar {
		far = append(far, b)
	}
	slices.Sort(far)
	n := len(far)
	for _, objs := range d.wheelRing {
		if len(objs) > 0 {
			n++
		}
	}
	for _, b := range far {
		if d.inWindow(b) && len(d.wheelRing[b&wheelMask]) > 0 {
			n-- // shared with its ring slot
		}
	}
	e.Len(n)
	fi := 0
	for b := d.curBucket; b < d.curBucket+wheelRingSize; b++ {
		ring := d.wheelRing[b&wheelMask]
		if len(ring) == 0 {
			continue
		}
		for ; fi < len(far) && far[fi] < b; fi++ {
			encodeBucket(e, far[fi], d.wheelFar[far[fi]], nil)
		}
		var head []object
		if fi < len(far) && far[fi] == b {
			head = d.wheelFar[b]
			fi++
		}
		encodeBucket(e, b, head, ring)
	}
	for ; fi < len(far); fi++ {
		encodeBucket(e, far[fi], d.wheelFar[far[fi]], nil)
	}

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

// encodeBucket writes one death bucket: its number, then the far and
// ring parts as one object list.
func encodeBucket(e *snapshot.Encoder, b int64, far, ring []object) {
	e.I64(b)
	e.Len(len(far) + len(ring))
	encodeObjects(e, far)
	encodeObjects(e, ring)
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
	d.curBucket = dec.I64()
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

	nb := dec.Len(8 + 4)
	d.wheelRing = make([][]object, wheelRingSize)
	d.wheelFar = make(map[int64][]object, nb)
	var wheelObjs int64
	for i := 0; i < nb && dec.Err() == nil; i++ {
		b := dec.I64()
		no := dec.Len(8 + 4)
		objs := make([]object, 0, no)
		for j := 0; j < no; j++ {
			objs = append(objs, object{addr: dec.U64(), size: dec.Int()})
		}
		if dec.Err() != nil {
			break
		}
		// Route each restored bucket the same way the insert path
		// would: in-window buckets to the ring, the rest to the far
		// map. A merged far+ring bucket collapses into one ring slice;
		// its replay order is unchanged.
		if d.inWindow(b) {
			slot := b & wheelMask
			if len(d.wheelRing[slot]) > 0 {
				dec.Fail("workload: duplicate death bucket %d", b)
				break
			}
			d.wheelRing[slot] = objs
		} else {
			if _, dup := d.wheelFar[b]; dup {
				dec.Fail("workload: duplicate death bucket %d", b)
				break
			}
			d.wheelFar[b] = objs
		}
		wheelObjs += int64(no)
	}
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
