package centralfreelist

import (
	"testing"

	"wsmalloc/internal/mem"
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/sizeclass"
	"wsmalloc/internal/span"
)

func newEnv(t *testing.T, cfg Config, size int) (*List, *pageheap.PageHeap, sizeclass.Class) {
	t.Helper()
	o := mem.NewOS()
	ph := pageheap.New(o, pageheap.DefaultConfig())
	sl, pm := new(span.Slab), mem.NewPageMap()
	tab := sizeclass.NewTable()
	c, ok := tab.ClassFor(size)
	if !ok {
		t.Fatalf("no class for size %d", size)
	}
	return New(c, cfg, ph, sl, pm), ph, c
}

func TestAllocBatchGrows(t *testing.T) {
	l, ph, c := newEnv(t, DefaultConfig(), 16)
	out := make([]uint64, 100)
	if n, _ := l.AllocBatch(out); n != 100 {
		t.Fatalf("AllocBatch = %d", n)
	}
	seen := map[uint64]bool{}
	for _, a := range out {
		if seen[a] {
			t.Fatalf("duplicate object %#x", a)
		}
		seen[a] = true
	}
	st := l.Stats()
	if st.LiveObjects != 100 {
		t.Fatalf("LiveObjects = %d", st.LiveObjects)
	}
	if st.Spans != 1 { // 100 objects of 16B fit one 512-slot span
		t.Fatalf("Spans = %d", st.Spans)
	}
	if st.SpansCreated != 1 {
		t.Fatalf("SpansCreated = %d", st.SpansCreated)
	}
	if ph.LiveRanges() != 1 {
		t.Fatalf("pageheap ranges = %d", ph.LiveRanges())
	}
	_ = c
}

func TestFreeBatchReleasesEmptySpans(t *testing.T) {
	l, ph, c := newEnv(t, DefaultConfig(), 16)
	out := make([]uint64, c.ObjectsPerSpan) // exactly one span
	l.AllocBatch(out)
	if st := l.Stats(); st.Spans != 1 || st.FreeObjects != 0 {
		t.Fatalf("expected one full span: %+v", st)
	}
	l.FreeBatch(out)
	st := l.Stats()
	if st.Spans != 0 || st.LiveObjects != 0 {
		t.Fatalf("span not released: %+v", st)
	}
	if st.SpansReleased != 1 {
		t.Fatalf("SpansReleased = %d", st.SpansReleased)
	}
	if ph.LiveRanges() != 0 {
		t.Fatal("pageheap still has the span")
	}
}

func TestFragmentationAccounting(t *testing.T) {
	l, _, c := newEnv(t, DefaultConfig(), 16)
	out := make([]uint64, 10)
	l.AllocBatch(out)
	st := l.Stats()
	wantFree := int64(c.ObjectsPerSpan - 10)
	if st.FreeObjects != wantFree {
		t.Fatalf("FreeObjects = %d, want %d", st.FreeObjects, wantFree)
	}
	wantBytes := wantFree*int64(c.Size) + int64(c.TailWaste())
	if st.FreeBytes != wantBytes {
		t.Fatalf("FreeBytes = %d, want %d", st.FreeBytes, wantBytes)
	}
}

func TestPrioritizationServesFullestSpan(t *testing.T) {
	l, _, c := newEnv(t, DefaultConfig(), 16)
	cap := c.ObjectsPerSpan

	// Create two spans: span A nearly full, span B nearly empty.
	a := make([]uint64, cap) // fills span A completely
	l.AllocBatch(a)
	b := make([]uint64, cap) // fills span B completely
	l.AllocBatch(b)
	// Free 2 from A (high occupancy), all but 2 from B (low occupancy).
	l.FreeBatch(a[:2])
	l.FreeBatch(b[2:])
	if st := l.Stats(); st.Spans != 2 {
		t.Fatalf("Spans = %d", st.Spans)
	}
	// Next allocation must come from A (fullest): its freed slots are
	// the two addresses we returned.
	got := make([]uint64, 2)
	l.AllocBatch(got)
	want := map[uint64]bool{a[0]: true, a[1]: true}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("allocation %#x not from the fullest span", g)
		}
	}
}

func TestLegacyServesFrontOfList(t *testing.T) {
	l, _, c := newEnv(t, LegacyConfig(), 16)
	cap := c.ObjectsPerSpan
	a := make([]uint64, cap)
	l.AllocBatch(a)
	b := make([]uint64, cap)
	l.AllocBatch(b)
	// Free from B last so B sits at the front of the singleton list.
	l.FreeBatch(a[:2])
	l.FreeBatch(b[2:])
	got := make([]uint64, 1)
	l.AllocBatch(got)
	// Legacy takes the front span (most recently relinked = B), even
	// though it is nearly empty — the behaviour the paper fixes.
	sB := got[0] >= b[2] && got[0] <= b[cap-1] || got[0] == b[2]
	if !sB {
		// Front-of-list must be span B: all returned addresses came
		// from it.
		t.Fatalf("legacy allocation %#x should come from span B", got[0])
	}
}

func TestListIndexMapping(t *testing.T) {
	l, _, _ := newEnv(t, DefaultConfig(), 16)
	cases := []struct{ live, want int }{
		{0, 7}, {1, 7}, {2, 6}, {3, 6}, {4, 5}, {8, 4}, {16, 3},
		{32, 2}, {64, 1}, {128, 0}, {132, 0}, {255, 0}, {511, 0},
	}
	for _, c := range cases {
		if got := l.listIndexFor(c.live); got != c.want {
			t.Errorf("listIndexFor(%d) = %d, want %d", c.live, got, c.want)
		}
	}
}

func TestSpanReturnRateDecreasesWithOccupancy(t *testing.T) {
	// Property from Fig. 13: spans holding more live objects are less
	// likely to be released. Simulate random churn and verify the
	// prioritized CFL releases spans while keeping dense ones.
	l, _, c := newEnv(t, DefaultConfig(), 16)
	r := rng.New(7)
	live := map[uint64]bool{}
	var liveList []uint64
	for i := 0; i < 200000; i++ {
		if r.Bool(0.55) || len(liveList) == 0 {
			out := make([]uint64, 1)
			l.AllocBatch(out)
			live[out[0]] = true
			liveList = append(liveList, out[0])
		} else {
			j := r.Intn(len(liveList))
			addr := liveList[j]
			liveList[j] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, addr)
			l.FreeBatch([]uint64{addr})
		}
	}
	st := l.Stats()
	if st.SpansReleased == 0 {
		t.Fatal("churn never released a span")
	}
	// Density check: with prioritization the live objects should be
	// packed into few spans.
	occupancy := float64(st.LiveObjects) / float64(int64(st.Spans)*int64(c.ObjectsPerSpan))
	if occupancy < 0.5 {
		t.Fatalf("prioritized packing too sparse: occupancy %.2f", occupancy)
	}
}

// TestLegacyPinsDrainingFrontSpan reproduces, deterministically, the §4.3
// pathology the redesign removes: under the legacy singleton list a span
// that cracked long ago drains *in place* at the front, so the next
// allocation lands on a nearly-empty span and pins it; the prioritized
// free list allocates from the densest span instead, letting the drained
// span release.
func TestLegacyPinsDrainingFrontSpan(t *testing.T) {
	scenario := func(cfg Config) (spansAtEnd int, releases int64) {
		o := mem.NewOS()
		ph := pageheap.New(o, pageheap.DefaultConfig())
		sl, pm := new(span.Slab), mem.NewPageMap()
		tab := sizeclass.NewTable()
		c, _ := tab.ClassFor(16)
		l := New(c, cfg, ph, sl, pm)
		cap := c.ObjectsPerSpan

		// Fill spans A then B completely.
		a := make([]uint64, cap)
		l.AllocBatch(a)
		b := make([]uint64, cap)
		l.AllocBatch(b)
		// Crack B first, then A: A ends up at the front of the legacy
		// list (most recent crack).
		l.FreeBatch(b[:1])
		l.FreeBatch(a[:1])
		// A drains in place to a single live object; no other crack
		// occurs, so under legacy it stays at the front.
		l.FreeBatch(a[1 : cap-1])
		// One new allocation: legacy pins nearly-empty A, prioritization
		// picks dense B.
		pin := make([]uint64, 1)
		l.AllocBatch(pin)
		// A's final old object dies. If nothing pinned A it releases.
		l.FreeBatch(a[cap-1:])
		st := l.Stats()
		return st.Spans, st.SpansReleased
	}
	prioSpans, prioReleases := scenario(DefaultConfig())
	legacySpans, legacyReleases := scenario(LegacyConfig())
	if prioSpans != 1 || prioReleases != 1 {
		t.Fatalf("prioritized: spans=%d releases=%d, want 1 span and 1 release",
			prioSpans, prioReleases)
	}
	if legacySpans != 2 || legacyReleases != 0 {
		t.Fatalf("legacy: spans=%d releases=%d, want the drained span pinned (2 spans, 0 releases)",
			legacySpans, legacyReleases)
	}
}

func TestFreeForeignObjectPanics(t *testing.T) {
	o := mem.NewOS()
	ph := pageheap.New(o, pageheap.DefaultConfig())
	sl, pm := new(span.Slab), mem.NewPageMap()
	tab := sizeclass.NewTable()
	c16, _ := tab.ClassFor(16)
	c32, _ := tab.ClassFor(32)
	l16 := New(c16, DefaultConfig(), ph, sl, pm)
	l32 := New(c32, DefaultConfig(), ph, sl, pm)
	out := make([]uint64, 1)
	l16.AllocBatch(out)
	t.Run("wrong class", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		l32.FreeBatch(out)
	})
	t.Run("unmapped", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		l16.FreeBatch([]uint64{0xdead0000})
	})
}

func TestEachSpanVisitsAll(t *testing.T) {
	l, _, c := newEnv(t, DefaultConfig(), 16)
	out := make([]uint64, c.ObjectsPerSpan*2+5) // 2 full + 1 partial
	l.AllocBatch(out)
	count := 0
	l.EachSpan(func(*span.Span) { count++ })
	if count != 3 {
		t.Fatalf("EachSpan visited %d spans, want 3", count)
	}
}

func TestShortLifetimeClassification(t *testing.T) {
	o := mem.NewOS()
	ph := pageheap.New(o, pageheap.DefaultConfig())
	sl, pm := new(span.Slab), mem.NewPageMap()
	tab := sizeclass.NewTable()
	big, _ := tab.ClassFor(sizeclass.MaxSmallSize) // capacity small
	small, _ := tab.ClassFor(8)                    // capacity 1024
	lBig := New(big, DefaultConfig(), ph, sl, pm)
	lSmall := New(small, DefaultConfig(), ph, sl, pm)
	if lBig.Lifetime() != pageheap.LifetimeShort {
		t.Fatal("large-object spans must classify short-lived")
	}
	if lSmall.Lifetime() != pageheap.LifetimeLong {
		t.Fatal("small-object spans must classify long-lived")
	}
}

func TestSpanSequenceNumbersUnique(t *testing.T) {
	l, _, c := newEnv(t, DefaultConfig(), 16)
	out := make([]uint64, c.ObjectsPerSpan*3)
	l.AllocBatch(out)
	seen := map[int64]bool{}
	l.EachSpan(func(s *span.Span) {
		if s.Seq == 0 || seen[s.Seq] {
			t.Fatalf("bad span seq %d", s.Seq)
		}
		seen[s.Seq] = true
	})
	if len(seen) != 3 {
		t.Fatalf("spans = %d", len(seen))
	}
	// Release and regrow: the new span gets a fresh sequence number.
	l.FreeBatch(out)
	one := make([]uint64, 1)
	l.AllocBatch(one)
	l.EachSpan(func(s *span.Span) {
		if seen[s.Seq] {
			t.Fatal("sequence number reused")
		}
	})
}
