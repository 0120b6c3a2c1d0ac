// Package centralfreelist implements TCMalloc's central free list (§2.1
// item 3, §4.3): the per-size-class span manager that feeds the transfer
// caches. It supports both the legacy singleton span list and the paper's
// span prioritization redesign, which tracks spans in L occupancy-indexed
// lists and serves allocations from the fullest spans — the spans least
// likely to be released — so that lightly-used spans drain and return to
// the pageheap (Fig. 13, Fig. 14).
package centralfreelist

import (
	"fmt"

	"wsmalloc/internal/check"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/sizeclass"
	"wsmalloc/internal/span"
	"wsmalloc/internal/telemetry"
)

// Config controls central free list behaviour.
type Config struct {
	// Policy is the span-management policy (span prioritization, §4.3).
	Policy Policy
	// NumLists is L, the number of occupancy-indexed lists the
	// prioritized policies keep (paper: 8).
	NumLists int
	// SpanLifetimeThreshold is C: spans with capacity < C are classified
	// short-lived by the capacity rule of the lifetime-aware hugepage
	// filler (paper: 16).
	SpanLifetimeThreshold int
}

// DefaultConfig returns the redesigned configuration from the paper.
func DefaultConfig() Config {
	return Config{Policy: FullestFirst, NumLists: 8, SpanLifetimeThreshold: 16}
}

// LegacyConfig returns the pre-redesign singleton-list configuration.
func LegacyConfig() Config {
	return Config{Policy: Legacy, NumLists: 1, SpanLifetimeThreshold: 16}
}

// Stats captures per-class central free list telemetry.
type Stats struct {
	// Spans is the number of spans currently owned.
	Spans int
	// LiveObjects counts objects allocated out of this free list
	// (including ones cached by upper tiers).
	LiveObjects int64
	// FreeObjects counts free slots across owned spans — the central
	// free list's external fragmentation (Fig. 6b).
	FreeObjects int64
	// FreeBytes is FreeObjects*objectSize plus span tail waste.
	FreeBytes int64
	// SpansCreated and SpansReleased count pageheap round trips; their
	// ratio is the span return rate of Fig. 16.
	SpansCreated, SpansReleased int64
}

// List is the central free list for one size class.
type List struct {
	class sizeclass.Class
	cfg   Config
	ph    *pageheap.PageHeap
	// spans is the machine's span slab, shared with every other class
	// and the large-span path; pm maps each span page to its ID.
	spans *span.Slab
	pm    *mem.PageMap
	// tag is the class's page-map size-class byte.
	tag uint8

	// nonempty[i] holds partially-filled spans; with prioritization,
	// index 0 holds the fullest spans. Full spans are parked in full.
	nonempty []span.List
	full     span.List

	liveObjects   int64
	spansCreated  int64
	spansReleased int64
	lifetime      pageheap.Lifetime
	nextSeq       int64

	feed pageheap.LifetimeFeedback

	tel *telemetry.Sink
}

// SetTelemetry installs the telemetry sink (nil disables).
func (l *List) SetTelemetry(s *telemetry.Sink) { l.tel = s }

// New creates a central free list for class c, drawing pages from ph,
// placing spans in the slab spans and registering their pages in pm.
func New(c sizeclass.Class, cfg Config, ph *pageheap.PageHeap, spans *span.Slab, pm *mem.PageMap) *List {
	if cfg.NumLists < 1 {
		panic(fmt.Sprintf("centralfreelist: NumLists = %d", cfg.NumLists))
	}
	l := &List{
		class:    c,
		cfg:      cfg,
		ph:       ph,
		spans:    spans,
		pm:       pm,
		tag:      span.ClassTag(c.Index),
		nonempty: make([]span.List, cfg.lists()),
	}
	l.lifetime = l.classify()
	return l
}

// classify predicts the lifetime class of this list's spans under the
// pageheap's filler policy.
func (l *List) classify() pageheap.Lifetime {
	return l.ph.Classify(l.class.Index, l.class.ObjectsPerSpan, l.cfg.SpanLifetimeThreshold, l.feed)
}

// Swap retunes the free list to a new configuration mid-run: the span
// policy is replaced, the lifetime class is re-predicted under the
// pageheap's (already swapped) filler policy, and every partially-filled
// span is deterministically refiled into the new occupancy-list geometry
// (walking the old lists in index order, front to back). Full spans stay
// parked and the cumulative counters carry over. A Swap on a freshly
// constructed list is indistinguishable from construction with cfg.
func (l *List) Swap(cfg Config) {
	if cfg.NumLists < 1 {
		panic(fmt.Sprintf("centralfreelist: NumLists = %d", cfg.NumLists))
	}
	var ids []span.ID
	for i := range l.nonempty {
		for id := l.spans.PopFront(&l.nonempty[i]); id != 0; id = l.spans.PopFront(&l.nonempty[i]) {
			ids = append(ids, id)
		}
	}
	l.cfg = cfg
	l.lifetime = l.classify()
	l.nonempty = make([]span.List, cfg.lists())
	for _, id := range ids {
		l.relink(id)
	}
}

// SetLifetimeFeedback installs the observed-lifetime feed the
// heap-profile filler policy consults (the allocator wires the heap
// profiler's per-class decade accumulator here). Classification happens
// at span growth, so feedback steers every span created after
// installation.
func (l *List) SetLifetimeFeedback(fn pageheap.LifetimeFeedback) { l.feed = fn }

// Class returns the size class served.
func (l *List) Class() sizeclass.Class { return l.class }

// Lifetime returns the lifetime classification passed to the pageheap.
func (l *List) Lifetime() pageheap.Lifetime { return l.lifetime }

// listIndexFor maps a span's live allocation count to its list via the
// span policy (the paper's max(0, L-log2(A)) rule for the prioritized
// policies, the singleton list otherwise).
func (l *List) listIndexFor(live int) int {
	if l.cfg.Policy == Legacy {
		return 0
	}
	return prioritizedListFor(len(l.nonempty), live)
}

// relink places span id in the correct occupancy list (or full
// parking).
func (l *List) relink(id span.ID) {
	s := l.spans.At(id)
	if s.Full() {
		l.spans.PushFront(&l.full, id)
		return
	}
	l.spans.PushFront(&l.nonempty[l.listIndexFor(s.Live())], id)
}

// AllocBatch fills out with newly allocated object addresses and returns
// the count. The list grows on demand, so the count is len(out) unless
// the pageheap cannot map a fresh span; the partial fill is then returned
// together with the allocation error, and the objects already in out
// remain valid.
func (l *List) AllocBatch(out []uint64) (int, error) {
	filled := 0
	for filled < len(out) {
		id, srcIdx, err := l.pickSpan()
		if err != nil {
			return filled, err
		}
		s := l.spans.At(id)
		for filled < len(out) {
			addr, ok := l.spans.Allocate(id)
			if !ok {
				break
			}
			out[filled] = addr
			filled++
			l.liveObjects++
		}
		if s.InList() {
			panic("centralfreelist: picked span still linked")
		}
		l.relink(id)
		// A span that changed occupancy list while being filled is the
		// structural transition span prioritization reasons about
		// (srcIdx >= 0 excludes fresh spans, which EvCFLSpanCreate
		// already records; destination -1 is the full parking list).
		if srcIdx >= 0 {
			dst := -1
			if !s.Full() {
				dst = l.listIndexFor(s.Live())
			}
			if dst != srcIdx {
				l.tel.Event(telemetry.EvCFLSpanMove, int64(l.class.Index), int64(dst))
			}
		}
	}
	return filled, nil
}

// pickSpan returns the ID of a span with free capacity, unlinked from
// its list, plus the occupancy-list index it came from (-1 for a freshly
// grown span). The span policy chooses among existing spans; growth is
// the shared fallback.
func (l *List) pickSpan() (span.ID, int, error) {
	var id span.ID
	var i int
	if l.cfg.Policy == BestFit {
		id, i = bestFitPick(l)
	} else {
		id, i = frontPick(l)
	}
	if id != 0 {
		return id, i, nil
	}
	grown, err := l.growSpan()
	return grown, -1, err
}

// growSpan fetches a fresh span from the pageheap, propagating its
// allocation failure. The lifetime class is re-predicted per growth so
// the heap-profile filler policy can change its answer as observations
// accrue.
func (l *List) growSpan() (span.ID, error) {
	l.lifetime = l.classify()
	start, err := l.ph.Alloc(l.class.Pages, l.lifetime)
	if err != nil {
		return 0, err
	}
	id := l.spans.New(start, l.class.Pages, l.class.Index, l.class.Size, l.class.ObjectsPerSpan)
	l.nextSeq++
	l.spans.At(id).Seq = l.nextSeq
	l.pm.SetRange(start, l.class.Pages, uint32(id), l.tag)
	l.spansCreated++
	l.tel.Event(telemetry.EvCFLSpanCreate, int64(l.class.Index), l.nextSeq)
	return id, nil
}

// FreeBatch returns objects to their spans. Spans that drain completely
// are unregistered and returned to the pageheap. Each object must belong
// to this free list's size class.
func (l *List) FreeBatch(objs []uint64) {
	// Hoist the disabled-telemetry check out of the per-object loop: with
	// no sink the loop body is branch-free with respect to telemetry
	// (the per-object Event calls below are gated on this one flag).
	telOn := l.tel != nil
	for _, addr := range objs {
		raw, tag := l.pm.Lookup(mem.PageID(addr >> mem.PageShift))
		if raw == 0 {
			panic(fmt.Sprintf("centralfreelist: free of unmapped address %#x", addr))
		}
		if tag != l.tag {
			panic(fmt.Sprintf("centralfreelist: object %#x belongs to class %d, not %d",
				addr, span.TagClass(tag), l.class.Index))
		}
		id := span.ID(raw)
		s := l.spans.At(id)
		wasFull := s.Full()
		oldIdx := -1
		if !wasFull {
			oldIdx = l.listIndexFor(s.Live())
		}
		l.spans.FreeAddr(id, addr)
		l.liveObjects--
		switch {
		case s.Empty():
			// Every object returned: give the span back to the pageheap.
			l.unlinkFor(id, wasFull, oldIdx)
			l.pm.ClearRange(s.Start, s.Pages)
			l.ph.Free(s.Start, s.Pages)
			l.spansReleased++
			if telOn {
				l.tel.Event(telemetry.EvCFLSpanRelease, int64(l.class.Index), s.Seq)
			}
			// No page names the span any more: its ID is free for the
			// next growth.
			l.spans.Release(id)
		case wasFull:
			l.spans.Remove(&l.full, id)
			l.relink(id)
			if telOn {
				l.tel.Event(telemetry.EvCFLSpanMove, int64(l.class.Index), int64(l.listIndexFor(s.Live())))
			}
		default:
			if newIdx := l.listIndexFor(s.Live()); newIdx != oldIdx {
				l.spans.Remove(&l.nonempty[oldIdx], id)
				l.relink(id)
				if telOn {
					l.tel.Event(telemetry.EvCFLSpanMove, int64(l.class.Index), int64(newIdx))
				}
			}
		}
	}
}

func (l *List) unlinkFor(id span.ID, wasFull bool, oldIdx int) {
	if wasFull {
		l.spans.Remove(&l.full, id)
		return
	}
	l.spans.Remove(&l.nonempty[oldIdx], id)
}

// Stats returns a snapshot.
func (l *List) Stats() Stats {
	spans := l.full.Len()
	for i := range l.nonempty {
		spans += l.nonempty[i].Len()
	}
	totalSlots := int64(spans) * int64(l.class.ObjectsPerSpan)
	free := totalSlots - l.liveObjects
	return Stats{
		Spans:         spans,
		LiveObjects:   l.liveObjects,
		FreeObjects:   free,
		FreeBytes:     free*int64(l.class.Size) + int64(spans)*int64(l.class.TailWaste()),
		SpansCreated:  l.spansCreated,
		SpansReleased: l.spansReleased,
	}
}

// EachFreeSpan visits every span holding mapped-but-free bytes — free
// object slots plus the span's tail waste (full spans still carry the
// tail) — with the span's creation time. The pageheapz fragmentation
// report uses it to age the fragmentation held at this tier
// (Fig. 11/13); the reported bytes sum exactly to Stats().FreeBytes.
func (l *List) EachFreeSpan(fn func(freeBytes, bornAtNs int64)) {
	tail := int64(l.class.TailWaste())
	visit := func(_ span.ID, s *span.Span) {
		if free := int64(s.FreeSlots())*int64(s.ObjSize) + tail; free > 0 {
			fn(free, s.BornAt)
		}
	}
	l.spans.Each(&l.full, visit)
	for i := range l.nonempty {
		l.spans.Each(&l.nonempty[i], visit)
	}
}

// EachSpan visits every owned span; fn must not allocate or free through
// this list. Used by the span return-rate studies (Fig. 13).
func (l *List) EachSpan(fn func(*span.Span)) {
	visit := func(_ span.ID, s *span.Span) { fn(s) }
	for i := range l.nonempty {
		l.spans.Each(&l.nonempty[i], visit)
	}
	l.spans.Each(&l.full, visit)
}

// CheckInvariants audits the free list: every span filed in the right
// occupancy list for its live count, full spans parked in full, every
// listed span of this class's geometry, live counts within capacity, the
// pagemap resolving every span page back to its span ID and class, and
// the aggregate live-object counter against a per-span recount.
func (l *List) CheckInvariants() []check.Violation {
	var vs []check.Violation
	var liveRecount int64
	audit := func(id span.ID, s *span.Span, wantFull bool, listIdx int) {
		if s.ClassIndex != l.class.Index || s.Pages != l.class.Pages {
			// A released slab slot is zeroed, so this also catches a
			// freed ID still linked into a list.
			vs = append(vs, check.Violationf("centralfreelist", check.KindStructure,
				"class %d list holds span ID %d of class %d with %d pages",
				l.class.Index, id, s.ClassIndex, s.Pages))
			return
		}
		if s.Live() < 0 || s.Live() > l.class.ObjectsPerSpan {
			vs = append(vs, check.Violationf("centralfreelist", check.KindStructure,
				"class %d span at %#x has %d live objects of capacity %d",
				l.class.Index, s.Start.Addr(), s.Live(), l.class.ObjectsPerSpan))
		}
		liveRecount += int64(s.Live())
		if wantFull != s.Full() {
			vs = append(vs, check.Violationf("centralfreelist", check.KindStructure,
				"class %d span at %#x full=%v filed in full=%v list",
				l.class.Index, s.Start.Addr(), s.Full(), wantFull))
		}
		if !wantFull && listIdx != l.listIndexFor(s.Live()) {
			vs = append(vs, check.Violationf("centralfreelist", check.KindStructure,
				"class %d span at %#x with %d live filed in list %d, belongs in %d",
				l.class.Index, s.Start.Addr(), s.Live(), listIdx, l.listIndexFor(s.Live())))
		}
		for i := 0; i < s.Pages; i++ {
			if got, tag := l.pm.Lookup(s.Start + mem.PageID(i)); got != uint32(id) || tag != l.tag {
				vs = append(vs, check.Violationf("centralfreelist", check.KindStructure,
					"pagemap does not resolve page %#x back to its class-%d span",
					(s.Start+mem.PageID(i)).Addr(), l.class.Index))
				break
			}
		}
	}
	for i := range l.nonempty {
		idx := i
		l.spans.Each(&l.nonempty[i], func(id span.ID, s *span.Span) { audit(id, s, false, idx) })
	}
	l.spans.Each(&l.full, func(id span.ID, s *span.Span) { audit(id, s, true, -1) })
	if liveRecount != l.liveObjects {
		vs = append(vs, check.Violationf("centralfreelist", check.KindAccounting,
			"class %d live-object counter %d disagrees with span recount %d",
			l.class.Index, l.liveObjects, liveRecount))
	}
	return vs
}

// CorruptLiveObjectsForTest skews the live-object counter by delta. It
// exists solely so the corruption self-test can prove the auditor
// detects span-accounting drift; production code never calls it.
func (l *List) CorruptLiveObjectsForTest(delta int64) {
	l.liveObjects += delta
}
