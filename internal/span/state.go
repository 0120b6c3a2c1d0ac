package span

import (
	"wsmalloc/internal/mem"
	"wsmalloc/internal/snapshot"
)

// EncodeState serializes span id's full occupancy state. List linkage
// and the slab ID are not serialized — the owning tier re-places
// restored spans and re-links them in its own list order.
func (sl *Slab) EncodeState(e *snapshot.Encoder, id ID) {
	s := sl.At(id)
	e.U64(uint64(s.Start))
	e.Int(s.Pages)
	e.Int(s.ClassIndex)
	e.Int(s.ObjSize)
	e.Int(s.capacity)
	e.Int(s.live)
	e.Int(s.hint)
	e.I64(s.BornAt)
	e.I64(s.Seq)
	bm := sl.bits(s)
	e.Len(len(bm))
	for _, w := range bm {
		e.U64(w)
	}
}

// DecodeState places a span saved by EncodeState in the slab and
// returns its ID, validating the geometry so a corrupted blob cannot
// build a span that panics later. It returns 0, placing nothing, when
// the span is invalid or the decoder has failed.
func (sl *Slab) DecodeState(d *snapshot.Decoder) ID {
	var s Span
	start := d.U64()
	s.Pages = d.Int()
	s.ClassIndex = d.Int()
	s.ObjSize = d.Int()
	s.capacity = d.Int()
	s.live = d.Int()
	s.hint = d.Int()
	s.BornAt = d.I64()
	s.Seq = d.I64()
	n := d.Len(8)
	if d.Err() != nil {
		return 0
	}
	if s.Pages <= 0 || s.ObjSize <= 0 || s.capacity <= 0 || s.capacity > MaxObjects ||
		s.live < 0 || s.live > s.capacity ||
		n != s.words() || s.hint < 0 || s.hint >= n {
		return 0
	}
	s.Start = mem.PageID(start)
	var words [MaxObjects / 64]uint64
	for i := range n {
		words[i] = d.U64()
	}
	if d.Err() != nil {
		return 0
	}
	id := sl.New(s.Start, s.Pages, s.ClassIndex, s.ObjSize, s.capacity)
	t := sl.At(id)
	s.bitmap = t.bitmap
	*t = s
	copy(sl.bits(t), words[:n])
	return id
}
