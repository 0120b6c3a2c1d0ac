package centralfreelist

import (
	"wsmalloc/internal/pageheap"
	"wsmalloc/internal/snapshot"
	"wsmalloc/internal/span"
)

// encodeSpanList serializes a span list head→tail so the restore path
// can rebuild the identical iteration order with PushBack.
func (l *List) encodeSpanList(e *snapshot.Encoder, src *span.List) {
	e.Len(src.Len())
	l.spans.Each(src, func(id span.ID, _ *span.Span) { l.spans.EncodeState(e, id) })
}

func (l *List) decodeSpanList(d *snapshot.Decoder, dst *span.List) {
	// A span is at least 10 fixed fields (80 bytes) plus its bitmap.
	n := d.Len(80)
	for i := 0; i < n; i++ {
		id := l.spans.DecodeState(d)
		if id == 0 {
			if d.Err() == nil {
				d.Fail("centralfreelist: class %d span %d fails geometry validation",
					l.class.Index, i)
			}
			return
		}
		s := l.spans.At(id)
		if s.ClassIndex != l.class.Index {
			d.Fail("centralfreelist: class %d list holds a class-%d span", l.class.Index, s.ClassIndex)
			return
		}
		l.spans.PushBack(dst, id)
		l.pm.SetRange(s.Start, s.Pages, uint32(id), l.tag)
	}
}

// EncodeState serializes one class's free list: every owned span (in
// list order, occupancy lists then full parking) and the counters. The
// config (span policy included) and pageheap wiring are reconstructed by
// New before DecodeState overlays state.
func (l *List) EncodeState(e *snapshot.Encoder) {
	e.Section("cfl")
	e.Int(l.class.Index)
	e.I64(l.liveObjects)
	e.I64(l.spansCreated)
	e.I64(l.spansReleased)
	e.Int(int(l.lifetime))
	e.I64(l.nextSeq)
	e.Len(len(l.nonempty))
	for i := range l.nonempty {
		l.encodeSpanList(e, &l.nonempty[i])
	}
	l.encodeSpanList(e, &l.full)
}

// DecodeState restores state saved by EncodeState into a list freshly
// built by New with the same Config, re-registering every restored
// span's pages in the pagemap.
func (l *List) DecodeState(d *snapshot.Decoder) {
	d.Section("cfl")
	if idx := d.Int(); d.Err() == nil && idx != l.class.Index {
		d.Fail("centralfreelist: snapshot is for class %d, list serves class %d",
			idx, l.class.Index)
	}
	l.liveObjects = d.I64()
	l.spansCreated = d.I64()
	l.spansReleased = d.I64()
	if lt := d.Int(); lt == int(pageheap.LifetimeLong) || lt == int(pageheap.LifetimeShort) {
		l.lifetime = pageheap.Lifetime(lt)
	} else if d.Err() == nil {
		d.Fail("centralfreelist: invalid lifetime class %d", lt)
	}
	l.nextSeq = d.I64()
	if n := d.Len(8); d.Err() == nil && n != len(l.nonempty) {
		d.Fail("centralfreelist: class %d snapshot has %d occupancy lists, list keeps %d",
			l.class.Index, n, len(l.nonempty))
	}
	if d.Err() != nil {
		return
	}
	for i := range l.nonempty {
		l.decodeSpanList(d, &l.nonempty[i])
	}
	l.decodeSpanList(d, &l.full)
}
