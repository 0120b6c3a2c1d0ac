package span

import (
	"reflect"
	"testing"
	"testing/quick"

	"wsmalloc/internal/check"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/rng"
)

// newTestID places a span of the given capacity in sl: 16B objects on
// one 8 KiB page unless capacity forces otherwise.
func newTestID(sl *Slab, capacity int) ID {
	objSize := 16
	pages := (capacity*objSize + mem.PageSize - 1) / mem.PageSize
	if pages == 0 {
		pages = 1
	}
	return sl.New(mem.PageID(1000), pages, 3, objSize, capacity)
}

// testSpan is a span and its slab, with the slab's per-span operations
// as methods.
type testSpan struct {
	*Span
	sl *Slab
	id ID
}

func (t testSpan) Allocate() (uint64, bool)     { return t.sl.Allocate(t.id) }
func (t testSpan) FreeAddr(addr uint64)         { t.sl.FreeAddr(t.id, addr) }
func (t testSpan) IsAllocated(addr uint64) bool { return t.sl.IsAllocated(t.id, addr) }

func spanIn(sl *Slab, id ID) testSpan { return testSpan{sl.At(id), sl, id} }

// newTestSpan places a span in a slab of its own.
func newTestSpan(capacity int) testSpan {
	sl := new(Slab)
	return spanIn(sl, newTestID(sl, capacity))
}

func TestAllocateFreeRoundTrip(t *testing.T) {
	s := newTestSpan(512)
	if s.Capacity() != 512 || !s.Empty() {
		t.Fatal("fresh span state wrong")
	}
	addrs := map[uint64]bool{}
	for i := 0; i < 512; i++ {
		a, ok := s.Allocate()
		if !ok {
			t.Fatalf("allocation %d failed", i)
		}
		if addrs[a] {
			t.Fatalf("duplicate address %#x", a)
		}
		if !s.Contains(a) {
			t.Fatalf("address %#x outside span", a)
		}
		addrs[a] = true
	}
	if !s.Full() {
		t.Fatal("span should be full")
	}
	if _, ok := s.Allocate(); ok {
		t.Fatal("allocation from full span succeeded")
	}
	for a := range addrs {
		s.FreeAddr(a)
	}
	if !s.Empty() {
		t.Fatalf("span not empty after freeing all: live=%d", s.Live())
	}
}

func TestLiveCountTracking(t *testing.T) {
	s := newTestSpan(100)
	a1, _ := s.Allocate()
	a2, _ := s.Allocate()
	if s.Live() != 2 || s.FreeSlots() != 98 {
		t.Fatalf("live=%d free=%d", s.Live(), s.FreeSlots())
	}
	s.FreeAddr(a1)
	if s.Live() != 1 {
		t.Fatalf("live=%d after free", s.Live())
	}
	if !s.IsAllocated(a2) || s.IsAllocated(a1) {
		t.Fatal("IsAllocated wrong")
	}
	if s.LiveBytes() != 16 {
		t.Fatalf("LiveBytes = %d", s.LiveBytes())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	s := newTestSpan(10)
	a, _ := s.Allocate()
	s.FreeAddr(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	s.FreeAddr(a)
}

func TestMisalignedFreePanics(t *testing.T) {
	s := newTestSpan(10)
	a, _ := s.Allocate()
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free must panic")
		}
	}()
	s.FreeAddr(a + 1)
}

func TestFreeBelowBasePanics(t *testing.T) {
	s := newTestSpan(10)
	defer func() {
		if recover() == nil {
			t.Fatal("free below base must panic")
		}
	}()
	s.FreeAddr(s.Start.Addr() - 16)
}

func TestReuseAfterFree(t *testing.T) {
	s := newTestSpan(4)
	var addrs []uint64
	for i := 0; i < 4; i++ {
		a, _ := s.Allocate()
		addrs = append(addrs, a)
	}
	s.FreeAddr(addrs[2])
	a, ok := s.Allocate()
	if !ok || a != addrs[2] {
		t.Fatalf("expected slot reuse of %#x, got %#x", addrs[2], a)
	}
}

func TestBytesAccounting(t *testing.T) {
	var sl Slab
	s := sl.At(sl.New(mem.PageID(0), 2, 5, 100, 163))
	if s.Bytes() != 2*mem.PageSize {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

func TestLargeSpan(t *testing.T) {
	sl := new(Slab)
	s := spanIn(sl, sl.New(mem.PageID(64), 40, LargeClass, 40*mem.PageSize, 1))
	a, ok := s.Allocate()
	if !ok || a != mem.PageID(64).Addr() {
		t.Fatalf("large span alloc = %#x, %v", a, ok)
	}
	if !s.Full() {
		t.Fatal("single-object span should be full")
	}
	s.FreeAddr(a)
	if !s.Empty() {
		t.Fatal("large span should be empty")
	}
}

func TestInvalidSpanPanics(t *testing.T) {
	for _, c := range []struct{ pages, objSize, capacity int }{
		{0, 8, 1}, {1, 0, 1}, {1, 8, 0}, {1, 8, MaxObjects + 1},
	} {
		func() {
			var sl Slab
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", c)
				}
				if sl.Len() != 0 {
					t.Errorf("New(%+v) placed a span before panicking", c)
				}
			}()
			sl.New(0, c.pages, 0, c.objSize, c.capacity)
		}()
	}
}

func TestAllocateFreeProperty(t *testing.T) {
	r := rng.New(77)
	f := func(ops []bool) bool {
		s := newTestSpan(64)
		var live []uint64
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				if a, ok := s.Allocate(); ok {
					live = append(live, a)
				} else if len(live) != 64 {
					return false // full only at capacity
				}
			} else {
				i := r.Intn(len(live))
				s.FreeAddr(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if s.Live() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestListPushRemove(t *testing.T) {
	var sl Slab
	var l List
	s1, s2, s3 := newTestID(&sl, 8), newTestID(&sl, 8), newTestID(&sl, 8)
	sl.PushFront(&l, s1)
	sl.PushFront(&l, s2)
	sl.PushBack(&l, s3)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Front() != s2 {
		t.Fatal("Front wrong")
	}
	var order []ID
	sl.Each(&l, func(id ID, _ *Span) { order = append(order, id) })
	if order[0] != s2 || order[1] != s1 || order[2] != s3 {
		t.Fatal("list order wrong")
	}
	sl.Remove(&l, s1) // middle
	if l.Len() != 2 || sl.At(s1).InList() {
		t.Fatal("remove middle failed")
	}
	if got := sl.PopFront(&l); got != s2 {
		t.Fatal("PopFront wrong")
	}
	sl.Remove(&l, s3) // only element
	if !l.Empty() {
		t.Fatal("list should be empty")
	}
	if sl.PopFront(&l) != 0 {
		t.Fatal("PopFront on empty should be 0")
	}
}

func TestListMembershipPanics(t *testing.T) {
	var sl Slab
	var a, b List
	s := newTestID(&sl, 8)
	sl.PushFront(&a, s)
	sl.PushFront(&b, newTestID(&sl, 8))
	t.Run("double insert", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		sl.PushFront(&b, s)
	})
	t.Run("remove from wrong list", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		sl.Remove(&b, s)
	})
}

func TestListMoveBetweenLists(t *testing.T) {
	var sl Slab
	var a, b List
	spans := make([]ID, 10)
	for i := range spans {
		spans[i] = newTestID(&sl, 8)
		sl.PushBack(&a, spans[i])
	}
	for !a.Empty() {
		sl.PushBack(&b, sl.PopFront(&a))
	}
	if b.Len() != 10 || a.Len() != 0 {
		t.Fatalf("a=%d b=%d", a.Len(), b.Len())
	}
	i := 0
	sl.Each(&b, func(id ID, _ *Span) {
		if id != spans[i] {
			t.Fatalf("order broken at %d", i)
		}
		i++
	})
}

func BenchmarkAllocateFree(b *testing.B) {
	s := newTestSpan(512)
	addrs := make([]uint64, 0, 512)
	for i := 0; i < b.N; i++ {
		if a, ok := s.Allocate(); ok {
			addrs = append(addrs, a)
		} else {
			for _, a := range addrs {
				s.FreeAddr(a)
			}
			addrs = addrs[:0]
		}
	}
}

// TestRecycleMatchesFreshSpan drains a span, releases its ID and places
// a new span, and checks the slab hands back the same ID with a span
// that reproduces a fresh span's exact allocation sequence — the
// property that lets the slab reuse IDs without breaking bit-identical
// goldens.
func TestRecycleMatchesFreshSpan(t *testing.T) {
	sl := new(Slab)
	other := newTestID(sl, 64)
	id := newTestID(sl, 64)
	s := spanIn(sl, id)
	var first []uint64
	for i := 0; i < 64; i++ {
		a, ok := s.Allocate()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		first = append(first, a)
	}
	// Free in a scrambled order so the hint and bitmap end up dirty.
	for i := range first {
		s.FreeAddr(first[(i*13+5)%64])
	}
	s.Seq, s.BornAt = 9, 99
	oldStart := s.Start
	// Released second, id's bitmap slot heads the free list and holds a
	// link to other's slot, which reuse must clear.
	sl.Release(other)
	sl.Release(id)
	if sl.Len() != 0 {
		t.Fatalf("Len = %d after Release", sl.Len())
	}
	start2 := oldStart + mem.PageID(128)
	id2 := sl.New(start2, 1, 3, 16, 64)
	if id2 != id || sl.Cap() != 2 {
		t.Fatalf("New after Release placed ID %d (slab cap %d), want the released ID %d", id2, sl.Cap(), id)
	}
	s = spanIn(sl, id2)
	if s.Live() != 0 || s.Seq != 0 || s.BornAt != 0 || s.Start != start2 || s.InList() {
		t.Fatalf("reused ID left dirty state: %+v", *s.Span)
	}
	for i := 0; i < 64; i++ {
		a, ok := s.Allocate()
		if !ok {
			t.Fatalf("post-reuse alloc %d failed", i)
		}
		if a-start2.Addr() != first[i]-oldStart.Addr() {
			t.Fatalf("alloc %d: reused offset %#x, fresh offset %#x",
				i, a-start2.Addr(), first[i]-oldStart.Addr())
		}
	}
}

// TestRecycleRejectsLiveSpan checks the safety interlock: releasing a
// span that still has live objects, sits on a list, was already
// released, or is the reserved ID 0 must panic rather than let a span's
// ID be handed out twice.
func TestRecycleRejectsLiveSpan(t *testing.T) {
	var sl Slab
	live := newTestID(&sl, 8)
	if _, ok := sl.Allocate(live); !ok {
		t.Fatal("alloc failed")
	}
	linked := newTestID(&sl, 8)
	var l List
	sl.PushFront(&l, linked)
	released := newTestID(&sl, 8)
	sl.Release(released)
	for _, id := range []ID{live, linked, released, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Release(%d) did not panic", id)
				}
			}()
			sl.Release(id)
		}()
	}
	if sl.Len() != 2 {
		t.Fatalf("Len = %d after refused releases", sl.Len())
	}
}

// TestSpanHoldsNoPointers pins the arena contract: a span holds no Go
// pointers, so the slab is one pointer-free slice the garbage collector
// never scans.
func TestSpanHoldsNoPointers(t *testing.T) {
	if p := check.PointerPath(reflect.TypeOf(Span{}), "Span"); p != "" {
		t.Fatalf("span.Span holds a Go pointer at %s", p)
	}
}
