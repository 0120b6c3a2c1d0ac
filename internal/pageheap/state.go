package pageheap

import (
	"slices"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/snapshot"
)

// lifetimeFromInt validates a decoded lifetime classification.
func lifetimeFromInt(d *snapshot.Decoder, v int) Lifetime {
	if v < 0 || v >= int(numLifetimes) {
		d.Fail("pageheap: invalid lifetime class %d", v)
		return LifetimeLong
	}
	return Lifetime(v)
}

// --- Filler ---

func encodeTracker(e *snapshot.Encoder, t *hpTracker) {
	e.U64(uint64(t.id))
	for _, w := range t.used {
		e.U64(w)
	}
	for _, w := range t.released {
		e.U64(w)
	}
	e.Int(t.usedCount)
	e.Int(t.releasedCount)
	e.Int(t.longestFree)
	e.Bool(t.donated)
	e.I64(t.lastFreeNs)
}

func decodeTracker(d *snapshot.Decoder) *hpTracker {
	t := &hpTracker{}
	t.id = mem.HugePageID(d.U64())
	for i := range t.used {
		t.used[i] = d.U64()
	}
	for i := range t.released {
		t.released[i] = d.U64()
	}
	t.usedCount = d.Int()
	t.releasedCount = d.Int()
	t.longestFree = d.Int()
	t.donated = d.Bool()
	t.lastFreeNs = d.I64()
	if d.Err() != nil {
		return nil
	}
	if t.used.count() != t.usedCount || t.released.count() != t.releasedCount ||
		t.used.longestFreeRun() != t.longestFree {
		d.Fail("pageheap: filler tracker %#x counters disagree with bitmaps", t.id.Addr())
		return nil
	}
	return t
}

// EncodeState serializes the filler: every tracker list that holds
// trackers (in list order, head first) plus the aggregate counters. The
// per-(longest-free-run, density) list a tracker belongs to is encoded
// explicitly so restored allocation order matches exactly.
func (f *Filler) EncodeState(e *snapshot.Encoder) {
	e.Section("filler")
	e.I64(f.usedPages)
	e.I64(f.releasedTotal)
	e.I64(f.refaults)
	e.I64(f.hugesReturned)
	e.I64(f.brokenDrained)
	nonEmpty := 0
	for lfr := 0; lfr <= mem.PagesPerHugePage; lfr++ {
		for chunk := 0; chunk <= fillerChunks; chunk++ {
			if f.lists[lfr][chunk].size > 0 {
				nonEmpty++
			}
		}
	}
	e.Len(nonEmpty)
	for lfr := 0; lfr <= mem.PagesPerHugePage; lfr++ {
		for chunk := 0; chunk <= fillerChunks; chunk++ {
			l := &f.lists[lfr][chunk]
			if l.size == 0 {
				continue
			}
			e.Int(lfr)
			e.Int(chunk)
			e.Len(l.size)
			for t := l.head; t != nil; t = t.next {
				encodeTracker(e, t)
			}
		}
	}
}

// DecodeState restores filler state saved by EncodeState into a fresh
// filler (same OS and onEmpty wiring).
func (f *Filler) DecodeState(d *snapshot.Decoder) {
	d.Section("filler")
	f.usedPages = d.I64()
	f.releasedTotal = d.I64()
	f.refaults = d.I64()
	f.hugesReturned = d.I64()
	f.brokenDrained = d.I64()
	lists := d.Len(8 + 8 + 4)
	for li := 0; li < lists; li++ {
		lfr := d.Int()
		chunk := d.Int()
		n := d.Len(8)
		if d.Err() != nil {
			return
		}
		if lfr < 0 || lfr > mem.PagesPerHugePage || chunk < 0 || chunk > fillerChunks {
			d.Fail("pageheap: filler list index (%d,%d) out of range", lfr, chunk)
			return
		}
		// Trackers were encoded head→tail; pushFront in reverse rebuilds
		// the identical order.
		ts := make([]*hpTracker, n)
		for i := 0; i < n; i++ {
			t := decodeTracker(d)
			if t == nil {
				return
			}
			if t.longestFree != lfr || chunkOf(t) != chunk {
				d.Fail("pageheap: filler tracker %#x filed under (%d,%d), belongs in (%d,%d)",
					t.id.Addr(), lfr, chunk, t.longestFree, chunkOf(t))
				return
			}
			if _, dup := f.byID[t.id]; dup {
				d.Fail("pageheap: filler tracker %#x appears twice", t.id.Addr())
				return
			}
			// The O(1)-stats counters and the intact mirror are derived
			// state: rebuild them from the decoded trackers and the
			// already-restored OS rather than widening the codec.
			t.intact = f.os.IsIntact(t.id)
			f.releasedPages += int64(t.releasedCount)
			if t.intact {
				f.usedOnIntactPages += int64(t.usedCount)
			}
			ts[i] = t
			f.byID[t.id] = t
		}
		for i := n - 1; i >= 0; i-- {
			// insert (not a raw pushFront) keeps the occupancy masks in
			// sync with the rebuilt lists.
			f.insert(ts[i])
		}
	}
}

// --- HugeRegion ---

// EncodeState serializes the region allocator: every region in slice
// order (allocation scans the slice, so order is part of the state)
// plus the counters.
func (h *HugeRegion) EncodeState(e *snapshot.Encoder) {
	e.Section("hugeregion")
	e.I64(h.usedPages)
	e.I64(h.allocs)
	e.I64(h.frees)
	e.Len(len(h.regions))
	for _, r := range h.regions {
		e.U64(uint64(r.start))
		for _, w := range r.used {
			e.U64(w)
		}
		e.Int(r.usedCount)
	}
}

// DecodeState restores region state saved by EncodeState.
func (h *HugeRegion) DecodeState(d *snapshot.Decoder) {
	d.Section("hugeregion")
	h.usedPages = d.I64()
	h.allocs = d.I64()
	h.frees = d.I64()
	n := d.Len(8 + regionPages/8 + 8)
	for i := 0; i < n; i++ {
		r := newRegion(mem.HugePageID(d.U64()))
		for j := range r.used {
			r.used[j] = d.U64()
		}
		r.usedCount = d.Int()
		if d.Err() != nil {
			return
		}
		recount := 0
		for j := 0; j < regionPages; j++ {
			if r.get(j) {
				recount++
			}
		}
		if recount != r.usedCount {
			d.Fail("pageheap: region %#x counter disagrees with bitmap", r.start.Addr())
			return
		}
		h.regions = append(h.regions, r)
		for j := 0; j < regionHugePages; j++ {
			h.byHuge[r.start+mem.HugePageID(j)] = r
		}
	}
}

// --- HugeCache ---

// EncodeState serializes the cache's sorted free-range list and its
// counters. The byte bound comes from Config at construction.
func (c *HugeCache) EncodeState(e *snapshot.Encoder) {
	e.Section("hugecache")
	e.I64(c.bytes)
	e.I64(c.hits)
	e.I64(c.misses)
	e.I64(c.releasedBytes)
	e.I64(c.everMappedHere)
	e.Len(len(c.ranges))
	for _, r := range c.ranges {
		e.U64(uint64(r.start))
		e.Int(r.n)
		e.I64(r.freedAt)
	}
}

// DecodeState restores cache state saved by EncodeState.
func (c *HugeCache) DecodeState(d *snapshot.Decoder) {
	d.Section("hugecache")
	c.bytes = d.I64()
	c.hits = d.I64()
	c.misses = d.I64()
	c.releasedBytes = d.I64()
	c.everMappedHere = d.I64()
	n := d.Len(8 + 8 + 8)
	c.ranges = make([]hugeRange, 0, n)
	for i := 0; i < n; i++ {
		r := hugeRange{start: mem.HugePageID(d.U64()), n: d.Int(), freedAt: d.I64()}
		if d.Err() != nil {
			return
		}
		if r.n <= 0 {
			d.Fail("pageheap: hugecache range %d has non-positive length %d", i, r.n)
			return
		}
		c.ranges = append(c.ranges, r)
	}
}

// --- PageHeap ---

// EncodeState serializes the heap: the live-placement table (sorted by
// start page for determinism), the routing counters, and every
// component tier.
func (p *PageHeap) EncodeState(e *snapshot.Encoder) {
	e.Section("pageheap")
	e.I64(p.largeUsedPages)
	e.I64(p.allocs)
	e.I64(p.frees)
	e.I64(p.pressureEvents)
	e.I64(p.pressureReleasedBytes)
	e.I64(p.oomFailures)

	starts := make([]mem.PageID, 0, len(p.live))
	for s := range p.live {
		starts = append(starts, s)
	}
	slices.Sort(starts)
	e.Len(len(starts))
	for _, s := range starts {
		pl := p.live[s]
		e.U64(uint64(s))
		e.U8(uint8(pl.kind))
		e.Int(pl.pages)
		e.Int(int(pl.lifetime))
		e.Int(pl.hugepages)
		e.Int(pl.tailUsed)
	}

	for _, f := range p.fillers {
		f.EncodeState(e)
	}
	p.region.EncodeState(e)
	p.cache.EncodeState(e)
}

// DecodeState restores heap state saved by EncodeState into a heap
// freshly built by New with the same Config and OS.
func (p *PageHeap) DecodeState(d *snapshot.Decoder) {
	d.Section("pageheap")
	p.largeUsedPages = d.I64()
	p.allocs = d.I64()
	p.frees = d.I64()
	p.pressureEvents = d.I64()
	p.pressureReleasedBytes = d.I64()
	p.oomFailures = d.I64()

	n := d.Len(8 + 1 + 8*4)
	p.live = make(map[mem.PageID]placement, n)
	for i := 0; i < n; i++ {
		s := mem.PageID(d.U64())
		pl := placement{kind: placementKind(d.U8()), pages: d.Int()}
		pl.lifetime = lifetimeFromInt(d, d.Int())
		pl.hugepages = d.Int()
		pl.tailUsed = d.Int()
		if d.Err() != nil {
			return
		}
		if pl.kind > placeDonated || pl.pages <= 0 {
			d.Fail("pageheap: invalid live placement at page %#x", s.Addr())
			return
		}
		p.live[s] = pl
	}

	for _, f := range p.fillers {
		f.DecodeState(d)
	}
	p.region.DecodeState(d)
	p.cache.DecodeState(d)
}
