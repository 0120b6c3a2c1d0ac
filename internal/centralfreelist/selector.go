package centralfreelist

import (
	"math/bits"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/span"
)

// Policy is the central free list's span-management policy: how many
// occupancy lists a class keeps, which list a span with a given live
// count belongs in, and which span serves the next allocation.
type Policy uint8

const (
	// Legacy is the pre-redesign policy: one list, allocations from its
	// front, no occupancy ordering.
	Legacy Policy = iota
	// FullestFirst is the paper's §4.3 policy: NumLists occupancy-indexed
	// lists filed by max(0, L-log2(live)) with allocations served from
	// the front of the fullest nonempty list, so lightly-used spans
	// drain and return to the pageheap.
	FullestFirst
	// BestFit keeps FullestFirst's occupancy lists but, within the
	// fullest nonempty bucket, serves the span with the lowest start
	// address instead of the most recently relinked one. Address-ordered
	// placement concentrates live objects at the bottom of the address
	// space, which empties high spans sooner and tightens the hugepage
	// footprint at a small scan cost per batch.
	BestFit
)

// lists returns the number of occupancy-indexed nonempty lists the
// policy keeps.
func (c Config) lists() int {
	if c.Policy == Legacy {
		return 1
	}
	return c.NumLists
}

// prioritizedListFor is the paper's max(0, L-log2(live)) rule clamped
// into [0, L-1] — shared by the prioritized and best-fit policies.
func prioritizedListFor(numLists, live int) int {
	if live <= 0 {
		return numLists - 1
	}
	idx := numLists - 1 - (bits.Len(uint(live)) - 1)
	if idx < 0 {
		idx = 0
	}
	return idx
}

// frontPick unlinks and returns the front span of the lowest-indexed
// nonempty list plus its list index, or (0, -1) when every list is
// empty — the pick of the legacy and prioritized policies.
func frontPick(l *List) (span.ID, int) {
	for i := 0; i < len(l.nonempty); i++ {
		if id := l.spans.PopFront(&l.nonempty[i]); id != 0 {
			return id, i
		}
	}
	return 0, -1
}

// bestFitPick is the BestFit pick: the lowest-address span of the
// fullest nonempty list.
func bestFitPick(l *List) (span.ID, int) {
	for i := 0; i < len(l.nonempty); i++ {
		var best span.ID
		var bestStart mem.PageID
		l.spans.Each(&l.nonempty[i], func(id span.ID, s *span.Span) {
			if best == 0 || s.Start < bestStart {
				best, bestStart = id, s.Start
			}
		})
		if best != 0 {
			l.spans.Remove(&l.nonempty[i], best)
			return best, i
		}
	}
	return 0, -1
}
