package mem

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"wsmalloc/internal/check"
)

func TestPageAddressArithmetic(t *testing.T) {
	p := PageID(1<<20 + 3)
	if p.Addr() != uint64(p)<<PageShift {
		t.Fatal("Addr mismatch")
	}
	if PagesPerHugePage != 256 {
		t.Fatalf("PagesPerHugePage = %d", PagesPerHugePage)
	}
	h := p.HugePage()
	if h.FirstPage() > p || h.FirstPage()+PagesPerHugePage <= p {
		t.Fatal("page not inside its hugepage")
	}
	if got := p.IndexInHugePage(); PageID(got) != p-h.FirstPage() {
		t.Fatalf("IndexInHugePage = %d", got)
	}
	if h.Addr() != uint64(h)<<HugePageShift {
		t.Fatal("hugepage Addr mismatch")
	}
}

func TestOSMapRelease(t *testing.T) {
	o := NewOS()
	h := mustMap(o, 3)
	for i := 0; i < 3; i++ {
		if !o.IsMapped(h + HugePageID(i)) {
			t.Fatalf("hugepage %d not mapped", i)
		}
		if !o.IsIntact(h + HugePageID(i)) {
			t.Fatalf("hugepage %d not intact", i)
		}
	}
	if o.MappedBytes() != 3*HugePageSize {
		t.Fatalf("MappedBytes = %d", o.MappedBytes())
	}
	if o.IntactHugeBytes() != 3*HugePageSize {
		t.Fatalf("IntactHugeBytes = %d", o.IntactHugeBytes())
	}
	o.ReleaseHuge(h + 1)
	if o.IsMapped(h + 1) {
		t.Fatal("released hugepage still mapped")
	}
	if o.MappedBytes() != 2*HugePageSize {
		t.Fatalf("MappedBytes after release = %d", o.MappedBytes())
	}
	if o.MmapCalls() != 1 || o.ReleaseCalls() != 1 {
		t.Fatalf("call counts: mmap=%d release=%d", o.MmapCalls(), o.ReleaseCalls())
	}
}

func TestOSDistinctRegions(t *testing.T) {
	o := NewOS()
	a := mustMap(o, 2)
	b := mustMap(o, 2)
	if b < a+2 {
		t.Fatalf("regions overlap: a=%d b=%d", a, b)
	}
}

func TestSubreleaseBreaksHugepage(t *testing.T) {
	o := NewOS()
	h := mustMap(o, 1)
	o.Subrelease(h, 10)
	if o.IsIntact(h) {
		t.Fatal("subreleased hugepage still intact")
	}
	if !o.IsMapped(h) {
		t.Fatal("partially subreleased hugepage unmapped")
	}
	if got := o.ReleasedPages(h); got != 10 {
		t.Fatalf("ReleasedPages = %d", got)
	}
	want := int64(HugePageSize - 10*PageSize)
	if o.MappedBytes() != want {
		t.Fatalf("MappedBytes = %d, want %d", o.MappedBytes(), want)
	}
	if o.BrokenBytes() != want {
		t.Fatalf("BrokenBytes = %d, want %d", o.BrokenBytes(), want)
	}
	if o.IntactHugeBytes() != 0 {
		t.Fatalf("IntactHugeBytes = %d", o.IntactHugeBytes())
	}
}

func TestSubreleaseAllUnmaps(t *testing.T) {
	o := NewOS()
	h := mustMap(o, 1)
	o.Subrelease(h, 100)
	o.Subrelease(h, 156)
	if o.IsMapped(h) {
		t.Fatal("fully subreleased hugepage still mapped")
	}
	if o.ReleaseCalls() != 1 {
		t.Fatalf("ReleaseCalls = %d", o.ReleaseCalls())
	}
}

func TestRemapRestoresIntact(t *testing.T) {
	o := NewOS()
	h := mustMap(o, 1)
	o.Subrelease(h, 5)
	o.Remap(h)
	if !o.IsIntact(h) {
		t.Fatal("remapped hugepage not intact")
	}
	if o.MappedBytes() != HugePageSize {
		t.Fatalf("MappedBytes = %d", o.MappedBytes())
	}
}

func TestOSPanicsOnMisuse(t *testing.T) {
	cases := []struct {
		name string
		fn   func(o *OS)
	}{
		{"release unmapped", func(o *OS) { o.ReleaseHuge(12345) }},
		{"subrelease unmapped", func(o *OS) { o.Subrelease(12345, 1) }},
		{"subrelease zero", func(o *OS) { h := mustMap(o, 1); o.Subrelease(h, 0) }},
		{"subrelease too many", func(o *OS) { h := mustMap(o, 1); o.Subrelease(h, PagesPerHugePage+1) }},
		{"map zero", func(o *OS) { o.MapHuge(0) }},
		{"remap unmapped", func(o *OS) { o.Remap(777) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", c.name)
				}
			}()
			c.fn(NewOS())
		})
	}
}

func TestPageMapSetGetClear(t *testing.T) {
	m := NewPageMap()
	p := PageID(0x123456)
	if id := m.Get(p); id != 0 {
		t.Fatalf("empty map returned ID %d", id)
	}
	m.Set(p, 42, 7)
	if id, class := m.Lookup(p); id != 42 || class != 7 {
		t.Fatalf("Lookup = %d,%d", id, class)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	m.Set(p, 43, 0) // overwrite must not double count
	if m.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
	if id, class := m.Lookup(p); id != 43 || class != 0 {
		t.Fatalf("Lookup after overwrite = %d,%d", id, class)
	}
	m.Clear(p)
	if id := m.Get(p); id != 0 {
		t.Fatal("cleared entry still present")
	}
	if m.Len() != 0 {
		t.Fatalf("Len after clear = %d", m.Len())
	}
	m.Clear(p) // idempotent
	if m.Len() != 0 {
		t.Fatalf("Len after double clear = %d", m.Len())
	}
}

// TestPageMapRejectsIDZero pins the reserved ID: 0 means "unmapped", so
// mapping a page (or a range) to it is a bug and panics.
func TestPageMapRejectsIDZero(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func(*PageMap)
	}{
		{"Set", func(m *PageMap) { m.Set(7, 0, 1) }},
		{"SetRange", func(m *PageMap) { m.SetRange(7, 3, 0, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewPageMap()
			defer func() {
				if recover() == nil {
					t.Fatal("mapping a page to ID 0 did not panic")
				}
				if m.Len() != 0 {
					t.Fatalf("Len = %d after the refused mapping", m.Len())
				}
			}()
			c.fn(m)
		})
	}
}

func TestPageMapRange(t *testing.T) {
	m := NewPageMap()
	m.SetRange(100, 50, 9, 3)
	for i := PageID(100); i < 150; i++ {
		if id, class := m.Lookup(i); id != 9 || class != 3 {
			t.Fatalf("page %d: %d,%d", i, id, class)
		}
	}
	if m.Get(99) != 0 {
		t.Fatal("page 99 unexpectedly set")
	}
	if m.Get(150) != 0 {
		t.Fatal("page 150 unexpectedly set")
	}
	m.ClearRange(100, 50)
	if m.Len() != 0 {
		t.Fatalf("Len after ClearRange = %d", m.Len())
	}
}

// TestPageMapRangeCrossesNodes checks the per-leaf range walks against
// per-page Set and Clear on ranges that start, end and straddle leaf
// (4096-page) and mid-node (2^23-page) boundaries, over partially
// mapped ground, and on Len after every step.
func TestPageMapRangeCrossesNodes(t *testing.T) {
	const leaf, mid = PageID(pmLeafSize), PageID(pmLeafSize * pmMidSize)
	type op struct {
		set   bool
		p     PageID
		n     int
		id    uint32
		class uint8
	}
	ops := []op{
		{true, leaf - 3, 10, 1, 1},                   // straddles one leaf boundary
		{true, 2*leaf - 1, 1, 2, 2},                  // last page of a leaf
		{true, mid - 5000, 2*pmLeafSize + 900, 3, 3}, // across a mid-node boundary
		{true, leaf - 1, 2, 4, 4},                    // overwrites part of op 0
		{false, leaf - 2, 4, 0, 0},                   // clears across the boundary
		{false, mid - 10, 20, 0, 0},                  // clears across the mid boundary
		{false, 5 * mid, 3 * pmLeafSize, 0, 0},       // clears never-mapped ground
		{true, 3*leaf + 17, 3 * pmLeafSize, 5, 5},    // spans three whole leaves
		{false, 4 * leaf, pmLeafSize, 0, 0},          // clears exactly one leaf
	}
	ranged, paged := NewPageMap(), NewPageMap()
	touched := map[PageID]bool{}
	for i, o := range ops {
		if o.set {
			ranged.SetRange(o.p, o.n, o.id, o.class)
		} else {
			ranged.ClearRange(o.p, o.n)
		}
		for k := 0; k < o.n; k++ {
			p := o.p + PageID(k)
			touched[p] = true
			if o.set {
				paged.Set(p, o.id, o.class)
			} else {
				paged.Clear(p)
			}
		}
		if ranged.Len() != paged.Len() {
			t.Fatalf("op %d: Len %d by range, %d by page", i, ranged.Len(), paged.Len())
		}
		for p := range touched {
			gi, gc := ranged.Lookup(p)
			wi, wc := paged.Lookup(p)
			if gi != wi || gc != wc {
				t.Fatalf("op %d: page %#x maps to %d,%d by range, %d,%d by page", i, p, gi, gc, wi, wc)
			}
		}
	}
}

func TestPageMapSparseSpread(t *testing.T) {
	m := NewPageMap()
	// Touch pages across the whole simulated space to exercise all radix
	// levels.
	for i := 0; i < 1000; i++ {
		p := PageID(uint64(i) * 0x2000037)
		if uint64(p) >= 1<<pmPageBits {
			p = PageID(uint64(p) % (1 << pmPageBits))
		}
		m.Set(p, uint32(i)+1, uint8(i))
	}
	for i := 0; i < 1000; i++ {
		p := PageID(uint64(i) * 0x2000037)
		if uint64(p) >= 1<<pmPageBits {
			p = PageID(uint64(p) % (1 << pmPageBits))
		}
		if id, class := m.Lookup(p); id != uint32(i)+1 || class != uint8(i) {
			t.Fatalf("page %d: got %d,%d", p, id, class)
		}
	}
}

func TestPageMapOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range page")
		}
	}()
	NewPageMap().Set(PageID(1<<pmPageBits), 1, 0)
}

func TestPageMapProperty(t *testing.T) {
	m := NewPageMap()
	shadow := map[PageID]uint16{}
	f := func(rawPage uint32, val uint16, del bool) bool {
		p := PageID(rawPage)
		id := uint32(val) + 1
		if del {
			m.Clear(p)
			delete(shadow, p)
		} else {
			m.Set(p, id, uint8(val))
			shadow[p] = val
		}
		gotID, gotClass := m.Lookup(p)
		want, wantOK := shadow[p]
		if !wantOK {
			return gotID == 0 && m.Len() == int64(len(shadow))
		}
		return gotID == uint32(want)+1 && gotClass == uint8(want) && m.Len() == int64(len(shadow))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPageMapGet(b *testing.B) {
	m := NewPageMap()
	for i := PageID(0); i < 1<<16; i++ {
		m.Set(i, uint32(i)+1, 0)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += m.Get(PageID(i & 0xffff))
	}
	_ = sink
}

// mustMap maps n hugepages or fails the test setup via panic; tests that
// exercise the error path call MapHuge directly.
func mustMap(o *OS, n int) HugePageID {
	h, err := o.MapHuge(n)
	if err != nil {
		panic(err)
	}
	return h
}

// TestPageMapLeafHoldsNoPointers pins the arena contract: page-map nodes
// hold indices, never Go pointers, so the garbage collector never scans
// the tree.
func TestPageMapLeafHoldsNoPointers(t *testing.T) {
	for _, v := range []any{pmLeaf{}, pmMid{}} {
		if p := check.PointerPath(reflect.TypeOf(v), fmt.Sprintf("%T", v)); p != "" {
			t.Fatalf("page-map node holds a Go pointer at %s", p)
		}
	}
}
