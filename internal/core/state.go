package core

import (
	"fmt"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/span"
)

// EncodeState serializes the allocator's complete mutable state: the
// virtual clock and background-duty cursors, the cost-model counters,
// the vCPU map, the simulated OS (including fault-plan cursors), the
// pageheap and all its components, every central free list's spans,
// the large-span table, the transfer and per-CPU caches, the shadow
// heap, the telemetry sink, and the heap profiler.
//
// The pagemap radix tree is not serialized: central free lists
// re-register their spans during decode, and large spans are encoded
// here and re-registered explicitly, so the restored pagemap is
// rebuilt exactly.
func (a *Allocator) EncodeState(e *snapshot.Encoder) {
	e.Section("core")
	// The active design string comes first: a decoder must re-apply the
	// swap to the fresh allocator before any tier state is overlaid, so
	// the tier geometry the blob was written under is back in force.
	e.String(a.design)
	e.I64(a.now)
	e.I64(a.lastPlunder)
	e.I64(a.lastRelease)
	e.I64(a.bytesUntilSample)

	e.Section("core.counters")
	e.F64(a.t.timeCPUCache)
	e.F64(a.t.timeTransfer)
	e.F64(a.t.timeCFL)
	e.F64(a.t.timePageHeap)
	e.F64(a.t.timeMmap)
	e.F64(a.t.timePrefetch)
	e.F64(a.t.timeSampled)
	e.F64(a.t.timeOther)
	e.I64(a.t.mallocs)
	e.I64(a.t.frees)
	e.I64(a.t.sampled)
	e.I64(a.t.liveObjects)
	e.I64(a.t.liveRequested)
	e.I64(a.t.liveRounded)
	e.I64(a.t.peakLiveRequested)
	e.I64(a.t.largeLiveBytes)
	e.I64(a.t.largeLiveRounded)
	e.I64(a.t.cumAllocatedBytes)
	e.I64(a.t.cumAllocatedObjs)
	e.I64(a.t.oomErrors)
	e.I64(a.t.freeErrors)

	a.vmap.EncodeState(e)
	a.os.EncodeState(e)
	a.heap.EncodeState(e)

	e.Section("core.cfls")
	e.Len(len(a.cfls))
	for _, l := range a.cfls {
		l.EncodeState(e)
	}

	// Large spans are registered only in the pagemap; enumerate them in
	// ascending page order (each span appears once, at its start page).
	e.Section("core.large")
	var large []span.ID
	a.pagemap.EachSet(func(p mem.PageID, id uint32) {
		if s := a.spans.At(span.ID(id)); s.ClassIndex == span.LargeClass && p == s.Start {
			large = append(large, span.ID(id))
		}
	})
	e.Len(len(large))
	for _, id := range large {
		a.spans.EncodeState(e, id)
	}

	a.transfer.EncodeState(e)
	a.front.EncodeState(e)

	e.Section("core.shadow")
	e.Bool(a.shadow != nil)
	if a.shadow != nil {
		a.shadow.EncodeState(e)
	}

	// Flush buffered observations so the encoded registry is complete;
	// a restored allocator starts with an empty buffer.
	a.flushSizeHist()
	a.tel.EncodeState(e)
	a.hp.EncodeState(e)
}

// DecodeState restores state saved by EncodeState into an allocator
// freshly built by New with the same Config and topology. On any
// decoding failure the allocator must be discarded: state may be
// partially overwritten.
func (a *Allocator) DecodeState(d *snapshot.Decoder) error {
	d.Section("core")
	if design := d.String(); design != "" && d.Err() == nil {
		// The snapshot was taken after a mid-run design swap: replay the
		// swap on this fresh allocator so every tier's geometry matches
		// the blob before its state decodes. Swapping an empty freshly
		// constructed allocator is equivalent to construction under the
		// swapped design, so the overlay below proceeds exactly as if the
		// allocator had been built with it.
		if err := a.ApplyDesign(design); err != nil {
			d.Fail("core: snapshot design point %q: %v", design, err)
		}
	}
	a.now = d.I64()
	a.lastPlunder = d.I64()
	a.lastRelease = d.I64()
	a.bytesUntilSample = d.I64()

	d.Section("core.counters")
	a.t.timeCPUCache = d.F64()
	a.t.timeTransfer = d.F64()
	a.t.timeCFL = d.F64()
	a.t.timePageHeap = d.F64()
	a.t.timeMmap = d.F64()
	a.t.timePrefetch = d.F64()
	a.t.timeSampled = d.F64()
	a.t.timeOther = d.F64()
	a.t.mallocs = d.I64()
	a.t.frees = d.I64()
	a.t.sampled = d.I64()
	a.t.liveObjects = d.I64()
	a.t.liveRequested = d.I64()
	a.t.liveRounded = d.I64()
	a.t.peakLiveRequested = d.I64()
	a.t.largeLiveBytes = d.I64()
	a.t.largeLiveRounded = d.I64()
	a.t.cumAllocatedBytes = d.I64()
	a.t.cumAllocatedObjs = d.I64()
	a.t.oomErrors = d.I64()
	a.t.freeErrors = d.I64()

	a.vmap.DecodeState(d)
	a.os.DecodeState(d)
	a.heap.DecodeState(d)

	d.Section("core.cfls")
	if n := d.Len(8); d.Err() == nil && n != len(a.cfls) {
		d.Fail("core: snapshot has %d central free lists, allocator has %d", n, len(a.cfls))
	}
	if d.Err() == nil {
		for _, l := range a.cfls {
			l.DecodeState(d)
		}
	}

	d.Section("core.large")
	n := d.Len(80)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := a.spans.DecodeState(d)
		if id == 0 {
			if d.Err() == nil {
				d.Fail("core: large span %d fails geometry validation", i)
			}
			break
		}
		s := a.spans.At(id)
		if s.ClassIndex != span.LargeClass {
			d.Fail("core: span at %#x in large table has class %d", s.Start.Addr(), s.ClassIndex)
			break
		}
		a.pagemap.SetRange(s.Start, s.Pages, uint32(id), span.ClassTag(span.LargeClass))
	}

	a.transfer.DecodeState(d)
	a.front.DecodeState(d)

	d.Section("core.shadow")
	if had := d.Bool(); d.Err() == nil && had != (a.shadow != nil) {
		d.Fail("core: snapshot shadow heap enabled=%v, constructed enabled=%v",
			had, a.shadow != nil)
	}
	if a.shadow != nil {
		a.shadow.DecodeState(d)
	}

	a.tel.DecodeState(d)
	a.hp = a.hp.DecodeState(d)

	if err := d.Err(); err != nil {
		return fmt.Errorf("core: restoring allocator state: %w", err)
	}
	return nil
}
