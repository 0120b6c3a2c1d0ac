package centralfreelist

import (
	"testing"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/span"
)

// checkFreeIDsUnreferenced asserts the slab's reuse contract: while an
// ID is free (its slot is zeroed, so Pages is 0), no occupancy list and
// no page-map entry names it, and every page-map entry names an in-use
// span covering that page.
func checkFreeIDsUnreferenced(t *testing.T, l *List) {
	t.Helper()
	listed := map[span.ID]bool{}
	for i := range l.nonempty {
		l.spans.Each(&l.nonempty[i], func(id span.ID, _ *span.Span) { listed[id] = true })
	}
	l.spans.Each(&l.full, func(id span.ID, _ *span.Span) { listed[id] = true })
	for id := span.ID(1); int(id) <= l.spans.Cap(); id++ {
		if l.spans.At(id).Pages == 0 && listed[id] {
			t.Fatalf("free span ID %d is linked into an occupancy list", id)
		}
	}
	l.pm.EachSet(func(p mem.PageID, raw uint32) {
		s := l.spans.At(span.ID(raw))
		if s.Pages == 0 {
			t.Fatalf("page %#x names free span ID %d", p, raw)
		}
		if p < s.Start || p >= s.Start+mem.PageID(s.Pages) {
			t.Fatalf("page %#x names span ID %d at [%#x, +%d)", p, raw, s.Start, s.Pages)
		}
	})
	if len(listed) != l.spans.Len() {
		t.Fatalf("%d spans listed, slab has %d in use", len(listed), l.spans.Len())
	}
}

// TestSpanPoolRecyclesReleasedSpans proves the slab's ID free list
// actually reuses slots: draining a span frees its ID, unreferenced by
// any list or page, and the next growth places the new span under that
// exact ID with fully reset state instead of growing the slab.
func TestSpanPoolRecyclesReleasedSpans(t *testing.T) {
	l, _, c := newEnv(t, DefaultConfig(), 16)
	out := make([]uint64, c.ObjectsPerSpan)
	if n, _ := l.AllocBatch(out); n != c.ObjectsPerSpan {
		t.Fatalf("AllocBatch = %d", n)
	}
	first := span.ID(l.pm.Get(mem.PageID(out[0] >> mem.PageShift)))
	if first == 0 {
		t.Fatal("fresh span not registered in the pagemap")
	}
	l.FreeBatch(out)
	if l.spans.Len() != 0 || l.spans.Cap() != 1 {
		t.Fatalf("released span still in use: slab len %d cap %d", l.spans.Len(), l.spans.Cap())
	}
	if l.pm.Len() != 0 {
		t.Fatalf("%d pages still mapped after the release", l.pm.Len())
	}
	checkFreeIDsUnreferenced(t, l)

	out2 := make([]uint64, c.ObjectsPerSpan)
	if n, _ := l.AllocBatch(out2); n != c.ObjectsPerSpan {
		t.Fatalf("second AllocBatch = %d", n)
	}
	id := span.ID(l.pm.Get(mem.PageID(out2[0] >> mem.PageShift)))
	if id != first || l.spans.Cap() != 1 {
		t.Fatalf("regrowth placed ID %d (slab cap %d) instead of reusing ID %d", id, l.spans.Cap(), first)
	}
	if s := l.spans.At(id); s.Live() != c.ObjectsPerSpan || s.Seq != 2 {
		t.Fatalf("reused span state not reset: live=%d seq=%d", s.Live(), s.Seq)
	}
	checkFreeIDsUnreferenced(t, l)
	// A span under a reused ID must hand out the same object sequence
	// (relative to the span start) a fresh span would — the bit-identity
	// contract the golden suite enforces end to end.
	for i := range out2 {
		if out2[i]-out2[0] != out[i]-out[0] {
			t.Fatalf("object %d: reused span offset %#x, fresh span offset %#x",
				i, out2[i]-out2[0], out[i]-out[0])
		}
	}
}

// TestSpanPoolIsBounded releases many spans at once and regrows them:
// the slab never grows past the high-water mark of spans in use, every
// freed ID stays unreferenced, and the regrown spans take distinct IDs —
// one ID handed out twice would alias two spans onto one slot.
func TestSpanPoolIsBounded(t *testing.T) {
	l, _, c := newEnv(t, DefaultConfig(), 16)
	const spans = 72
	out := make([]uint64, spans*c.ObjectsPerSpan)
	if n, _ := l.AllocBatch(out); n != len(out) {
		t.Fatalf("AllocBatch = %d", n)
	}
	l.FreeBatch(out)
	if l.spans.Len() != 0 || l.spans.Cap() != spans {
		t.Fatalf("slab len %d cap %d after releasing %d spans", l.spans.Len(), l.spans.Cap(), spans)
	}
	checkFreeIDsUnreferenced(t, l)
	// Regrow half, release a third of those, regrow the rest.
	for _, n := range []int{spans / 2, -spans / 6, spans/2 + spans/6} {
		if n > 0 {
			more := make([]uint64, n*c.ObjectsPerSpan)
			if got, _ := l.AllocBatch(more); got != len(more) {
				t.Fatalf("AllocBatch = %d", got)
			}
			out = append(out[:0], more...)
		} else {
			l.FreeBatch(out[:-n*c.ObjectsPerSpan])
		}
		checkFreeIDsUnreferenced(t, l)
	}
	if l.spans.Cap() != spans {
		t.Fatalf("slab grew to %d slots, past the %d-span high-water mark", l.spans.Cap(), spans)
	}
	seen := map[span.ID]bool{}
	l.EachSpan(func(s *span.Span) {
		id := span.ID(l.pm.Get(s.Start))
		if seen[id] {
			t.Fatalf("span ID %d placed twice", id)
		}
		seen[id] = true
	})
}
