// Package span implements TCMalloc spans: runs of contiguous 8 KiB pages
// that carve out fixed-size objects of a single size class (Fig. 2). The
// central free list manages spans in intrusive linked lists; the hugepage
// filler packs them onto hugepages. A span can return to the pageheap only
// when every object on it has been freed — the root cause of the central
// free list fragmentation the paper measures (Fig. 6b, Fig. 13).
//
// Spans live in a Slab, a flat pointer-free arena addressed by 32-bit
// IDs, the way Scalloc keeps its spans in one pre-reserved arena: lists
// link spans by ID, the page map maps pages to IDs, and a released ID
// goes on the slab's free list for the next span.
package span

import (
	"fmt"
	"math/bits"

	"wsmalloc/internal/arena"
	"wsmalloc/internal/mem"
)

// LargeClass is the ClassIndex of spans allocated directly from the
// pageheap for requests above the largest size class.
const LargeClass = -1

// MaxObjects is the largest span capacity: the 8-byte class's 1024
// objects on one page, a 16-word occupancy bitmap.
const MaxObjects = 1024

// ID names a span in its Slab. IDs are stable for the span's lifetime
// and reused after Release; 0 is reserved for "no span".
type ID uint32

// ClassTag is the page map's size-class byte for a span class: the
// class index plus one, so LargeClass is tag 0 (TCMalloc's pagemap
// likewise caches size class 0 for large spans).
func ClassTag(classIndex int) uint8 { return uint8(classIndex + 1) }

// TagClass inverts ClassTag.
func TagClass(tag uint8) int { return int(tag) - 1 }

// Span is a contiguous run of TCMalloc pages dedicated to one size class.
// It holds no Go pointers.
type Span struct {
	// Start is the first page of the span.
	Start mem.PageID
	// Pages is the span length in TCMalloc pages.
	Pages int
	// ClassIndex identifies the size class, or LargeClass for direct
	// pageheap allocations.
	ClassIndex int
	// ObjSize is the object size in bytes (the full span size for large
	// spans).
	ObjSize int

	// capacity is the number of object slots.
	capacity int
	// live is the number of currently allocated objects.
	live int
	// hint is the word index where the last allocation found space.
	hint int

	// BornAt is the simulation time (ns) the span was created; used by
	// lifetime studies.
	BornAt int64
	// Seq is a unique sequence number assigned by the central free list;
	// it identifies a span across telemetry snapshots (the slab reuses
	// IDs).
	Seq int64

	// prev/next link the span into a List by ID; list is the owning
	// List's tag (0 while unlinked). On the slab's free list, next links
	// the free IDs.
	prev, next ID
	list       uint32

	// bitmap is the offset of the span's occupancy bitmap (one bit per
	// object slot) in the slab's bitmap arena for its size.
	bitmap uint32
}

// words is the number of bitmap words in use.
func (s *Span) words() int { return (s.capacity + 63) / 64 }

// bitmapSize returns the log2 of the bitmap slot, in words, a span of
// the given capacity occupies: its word count rounded up to a power of
// two, so slots never straddle an arena block.
func bitmapSize(capacity int) int { return bits.Len(uint((capacity+63)/64 - 1)) }

// Capacity returns the total object slots — the paper's span-capacity
// lifetime proxy (Fig. 16).
func (s *Span) Capacity() int { return s.capacity }

// Live returns the number of currently allocated objects (the paper's
// "live allocations", Fig. 13).
func (s *Span) Live() int { return s.live }

// Free reports how many slots are available.
func (s *Span) FreeSlots() int { return s.capacity - s.live }

// Empty reports whether no objects are allocated, i.e. the span may be
// returned to the pageheap.
func (s *Span) Empty() bool { return s.live == 0 }

// Full reports whether every slot is allocated.
func (s *Span) Full() bool { return s.live == s.capacity }

// Bytes returns the span size in bytes.
func (s *Span) Bytes() int64 { return int64(s.Pages) * mem.PageSize }

// LiveBytes returns bytes occupied by allocated objects.
func (s *Span) LiveBytes() int64 { return int64(s.live) * int64(s.ObjSize) }

// bits returns span s's occupancy bitmap.
func (sl *Slab) bits(s *Span) []uint64 {
	return sl.bitmaps[bitmapSize(s.capacity)].words.Run(s.bitmap, uint32(s.words()))
}

// Allocate claims a free slot of span id and returns its object address.
// ok is false when the span is full.
func (sl *Slab) Allocate(id ID) (addr uint64, ok bool) {
	s := sl.At(id)
	if s.Full() {
		return 0, false
	}
	bm := sl.bits(s)
	n := len(bm)
	for i := 0; i < n; i++ {
		w := (s.hint + i) % n
		word := bm[w]
		if word == ^uint64(0) {
			continue
		}
		bit := bits.TrailingZeros64(^word)
		idx := w*64 + bit
		if idx >= s.capacity {
			continue // padding bits in the last word
		}
		bm[w] |= 1 << uint(bit)
		s.live++
		s.hint = w
		return s.addrOf(idx), true
	}
	// live < capacity guarantees a free slot exists; reaching here means
	// corrupted accounting.
	panic("span: bitmap/live accounting mismatch")
}

// FreeAddr releases the object at addr back to span id. It panics if
// addr is not an allocated object of the span — a double free or a wild
// pointer, both programming errors the real allocator also aborts on.
func (sl *Slab) FreeAddr(id ID, addr uint64) {
	s := sl.At(id)
	idx := s.indexOf(addr)
	bm := sl.bits(s)
	w, bit := idx/64, uint(idx%64)
	if bm[w]&(1<<bit) == 0 {
		panic(fmt.Sprintf("span: double free of object %#x", addr))
	}
	bm[w] &^= 1 << bit
	s.live--
	s.hint = w
}

// IsAllocated reports whether the object at addr of span id is live.
func (sl *Slab) IsAllocated(id ID, addr uint64) bool {
	s := sl.At(id)
	idx := s.indexOf(addr)
	return sl.bits(s)[idx/64]&(1<<uint(idx%64)) != 0
}

// Contains reports whether addr falls inside the span.
func (s *Span) Contains(addr uint64) bool {
	base := s.Start.Addr()
	return addr >= base && addr < base+uint64(s.Pages)*mem.PageSize
}

func (s *Span) addrOf(idx int) uint64 {
	return s.Start.Addr() + uint64(idx)*uint64(s.ObjSize)
}

func (s *Span) indexOf(addr uint64) int {
	base := s.Start.Addr()
	if addr < base {
		panic(fmt.Sprintf("span: address %#x below span base %#x", addr, base))
	}
	off := addr - base
	idx := int(off / uint64(s.ObjSize))
	if idx >= s.capacity || off%uint64(s.ObjSize) != 0 {
		panic(fmt.Sprintf("span: address %#x is not an object of this span", addr))
	}
	return idx
}

// InList reports whether the span is currently linked into a List.
func (s *Span) InList() bool { return s.list != 0 }

// Slab is a machine's span arena: every span lives in one pointer-free
// arena and is addressed by its ID. A *Span from At is valid only until
// the next New: hold IDs across span placements. (Arena blocks never
// move, but a released slot is reused by the next New.) The zero value
// is an empty slab.
type Slab struct {
	// spans[0] is the reserved "no span" slot.
	spans arena.Arena[Span]
	// free heads the released IDs, linked through Span.next.
	free ID
	// inUse counts spans not on the free list.
	inUse int
	// tags is the last List tag handed out.
	tags uint32
	// bitmaps[k] holds the bitmaps of 1<<k words (k = 0..4): most spans
	// need one word, and a released slot is reused by the next span of
	// its size, whatever the class.
	bitmaps [5]bitmapArena
}

// bitmapArena is a pool of equal-size bitmap slots. A free slot's first
// word links the next free slot (offset+1, 0 ending the list).
type bitmapArena struct {
	words arena.Arena[uint64]
	free  uint64
}

// alloc returns the offset of a zeroed slot of n words.
func (b *bitmapArena) alloc(n int) uint32 {
	if b.free != 0 {
		off := uint32(b.free - 1)
		slot := b.words.Run(off, uint32(n))
		b.free = slot[0]
		clear(slot)
		return off
	}
	off := uint32(b.words.Len())
	for range n {
		b.words.Grow()
	}
	return off
}

// release returns the slot of n words at off to the free list.
func (b *bitmapArena) release(off uint32, n int) {
	b.words.Run(off, uint32(n))[0] = b.free
	b.free = uint64(off) + 1
}

// New places a fresh, empty span and returns its ID, reusing a released
// ID when one is free. capacity is the number of object slots
// (pages*pagesize/objSize for small classes, 1 for large spans).
func (sl *Slab) New(start mem.PageID, pages, classIndex, objSize, capacity int) ID {
	if pages <= 0 || objSize <= 0 || capacity <= 0 || capacity > MaxObjects {
		panic(fmt.Sprintf("span: invalid span pages=%d objSize=%d capacity=%d", pages, objSize, capacity))
	}
	id := sl.free
	if id != 0 {
		sl.free = sl.At(id).next
	} else {
		if sl.spans.Len() == 0 {
			sl.spans.Grow()
		}
		id = ID(sl.spans.Grow())
	}
	k := bitmapSize(capacity)
	*sl.At(id) = Span{
		Start:      start,
		Pages:      pages,
		ClassIndex: classIndex,
		ObjSize:    objSize,
		capacity:   capacity,
		bitmap:     sl.bitmaps[k].alloc(1 << k),
	}
	sl.inUse++
	return id
}

// At returns the span with the given ID (see Slab for how long the
// pointer stays valid).
func (sl *Slab) At(id ID) *Span { return sl.spans.At(uint32(id)) }

// Release returns a drained, unlinked span's ID to the free list. The
// caller must have cleared every page-map entry naming it.
func (sl *Slab) Release(id ID) {
	if id == 0 {
		panic("span: Release of the reserved span ID 0")
	}
	s := sl.At(id)
	if s.live != 0 || s.list != 0 || s.Pages == 0 {
		panic("span: Release of live, linked or already released span")
	}
	k := bitmapSize(s.capacity)
	sl.bitmaps[k].release(s.bitmap, 1<<k)
	*s = Span{next: sl.free}
	sl.free = id
	sl.inUse--
}

// Len returns the number of spans in use.
func (sl *Slab) Len() int { return sl.inUse }

// Cap returns the number of span slots the slab has ever placed — its
// high-water mark.
func (sl *Slab) Cap() int { return max(sl.spans.Len()-1, 0) }

// List is an intrusive doubly-linked list of spans in a Slab. The zero
// value is an empty list; its operations are Slab methods.
type List struct {
	head, tail ID
	size       int
	// tag identifies the list to its spans; assigned by the slab on
	// first insert.
	tag uint32
}

// Len returns the number of spans in the list.
func (l *List) Len() int { return l.size }

// Empty reports whether the list has no spans.
func (l *List) Empty() bool { return l.size == 0 }

// Front returns the first span's ID, or 0.
func (l *List) Front() ID { return l.head }

func (sl *Slab) link(l *List, id ID, op string) *Span {
	s := sl.At(id)
	if s.list != 0 {
		panic("span: " + op + " of span already in a list")
	}
	if l.tag == 0 {
		sl.tags++
		l.tag = sl.tags
	}
	s.list = l.tag
	l.size++
	return s
}

// PushFront inserts span id at the head of l. The span must not be in
// any list.
func (sl *Slab) PushFront(l *List, id ID) {
	s := sl.link(l, id, "PushFront")
	s.next = l.head
	s.prev = 0
	if l.head != 0 {
		sl.At(l.head).prev = id
	} else {
		l.tail = id
	}
	l.head = id
}

// PushBack appends span id at the tail of l. The span must not be in
// any list.
func (sl *Slab) PushBack(l *List, id ID) {
	s := sl.link(l, id, "PushBack")
	s.prev = l.tail
	s.next = 0
	if l.tail != 0 {
		sl.At(l.tail).next = id
	} else {
		l.head = id
	}
	l.tail = id
}

// Remove unlinks span id from l. It panics if the span is not in l.
func (sl *Slab) Remove(l *List, id ID) {
	s := sl.At(id)
	if s.list == 0 || s.list != l.tag {
		panic("span: Remove of span not in this list")
	}
	if s.prev != 0 {
		sl.At(s.prev).next = s.next
	} else {
		l.head = s.next
	}
	if s.next != 0 {
		sl.At(s.next).prev = s.prev
	} else {
		l.tail = s.prev
	}
	s.prev, s.next, s.list = 0, 0, 0
	l.size--
}

// PopFront removes and returns the first span's ID, or 0.
func (sl *Slab) PopFront(l *List) ID {
	id := l.head
	if id != 0 {
		sl.Remove(l, id)
	}
	return id
}

// Each calls fn for every span of l in list order; fn must not mutate
// the list or place spans.
func (sl *Slab) Each(l *List, fn func(ID, *Span)) {
	for id := l.head; id != 0; {
		s := sl.At(id)
		next := s.next
		fn(id, s)
		id = next
	}
}
