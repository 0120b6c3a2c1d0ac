package mem

import (
	"slices"

	"wsmalloc/internal/snapshot"
)

// EncodeState serializes the OS bookkeeping: the bump-allocator cursor,
// every mapped hugepage's kernel-visible condition (sorted by hugepage
// ID so the encoding is deterministic), the incremental byte counters,
// the syscall counters, and the fault plan with its failure-stream
// cursor. The telemetry sink is not part of the state; core re-installs
// it at restore time.
func (o *OS) EncodeState(e *snapshot.Encoder) {
	e.Section("mem.os")
	e.U64(uint64(o.next))
	e.I64(o.mappedBytes)
	e.I64(o.releasedBytes)
	e.I64(o.mmapCalls)
	e.I64(o.releaseCalls)
	e.I64(o.subreleaseOps)
	e.I64(o.everMappedHuge)

	ids := make([]HugePageID, 0, len(o.mapped))
	for h := range o.mapped {
		ids = append(ids, h)
	}
	slices.Sort(ids)
	e.Len(len(ids))
	for _, h := range ids {
		st := o.mapped[h]
		e.U64(uint64(h))
		e.Bool(st.broken)
		e.Int(st.releasedPages)
	}

	e.Section("mem.faults")
	e.Bool(o.faults != nil)
	if o.faults != nil {
		f := o.faults
		e.U64(f.plan.Seed)
		e.F64(f.plan.MmapFailureRate)
		e.I64(f.plan.MappedBytesBudget)
		e.U64(f.rng)
		e.I64(f.injectedFailures)
		e.I64(f.budgetFailures)
	}
}

// DecodeState restores state saved by EncodeState, replacing the OS's
// mapped set and fault state wholesale.
func (o *OS) DecodeState(d *snapshot.Decoder) {
	d.Section("mem.os")
	o.next = HugePageID(d.U64())
	o.mappedBytes = d.I64()
	o.releasedBytes = d.I64()
	o.mmapCalls = d.I64()
	o.releaseCalls = d.I64()
	o.subreleaseOps = d.I64()
	o.everMappedHuge = d.I64()

	n := d.Len(8 + 1 + 8)
	o.mapped = make(map[HugePageID]*hugeState, n)
	for i := 0; i < n; i++ {
		h := HugePageID(d.U64())
		st := &hugeState{broken: d.Bool(), releasedPages: d.Int()}
		if d.Err() != nil {
			return
		}
		o.mapped[h] = st
	}

	d.Section("mem.faults")
	if !d.Bool() {
		o.faults = nil
		return
	}
	f := &faultState{}
	f.plan.Seed = d.U64()
	f.plan.MmapFailureRate = d.F64()
	f.plan.MappedBytesBudget = d.I64()
	f.rng = d.U64()
	f.injectedFailures = d.I64()
	f.budgetFailures = d.I64()
	o.faults = f
}

// EachSet visits every mapped page in ascending PageID order with its
// span ID. The restore path uses it to re-derive the pagemap's
// large-span entries without serializing the radix tree itself.
func (m *PageMap) EachSet(fn func(p PageID, id uint32)) {
	for ri, mid := range m.root[:] {
		if mid == 0 {
			continue
		}
		for mi, leaf := range m.mids[mid].leaves[:] {
			if leaf == 0 {
				continue
			}
			base := PageID(ri)<<(pmMidBits+pmLeafBits) | PageID(mi)<<pmLeafBits
			for li, id := range m.leaf(leaf).ids[:] {
				if id != 0 {
					fn(base|PageID(li), id)
				}
			}
		}
	}
}
