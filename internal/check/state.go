package check

import (
	"slices"

	"wsmalloc/internal/snapshot"
)

// eachInOrder walks the treap in ascending key order.
func (t *treap) eachInOrder(fn func(key uint64, rec record)) {
	var walk func(n *tnode)
	walk = func(n *tnode) {
		if n == nil {
			return
		}
		walk(n.left)
		fn(n.key, n.rec)
		walk(n.right)
	}
	walk(t.root)
}

// EncodeState serializes the shadow heap: the live-allocation treap (in
// key order — node priorities are a pure function of the key, so sorted
// reinsertion rebuilds the identical tree shape), the tombstone set,
// the sampling countdown, the counters, and the stored violations.
func (s *ShadowHeap) EncodeState(e *snapshot.Encoder) {
	e.Section("shadow")
	e.I64(s.sampleCountdown)
	e.I64(s.tracked)
	e.I64(s.checked)
	e.I64(s.vioCount)

	e.Len(s.live.size)
	s.live.eachInOrder(func(key uint64, rec record) {
		e.U64(key)
		e.Int(rec.size)
		e.Int(rec.class)
	})

	addrs := make([]uint64, 0, len(s.freed))
	for a := range s.freed {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	e.Len(len(addrs))
	for _, a := range addrs {
		rec := s.freed[a]
		e.U64(a)
		e.Int(rec.size)
		e.Int(rec.class)
	}

	e.Len(len(s.violations))
	for _, v := range s.violations {
		e.String(v.Tier)
		e.String(string(v.Kind))
		e.String(v.Detail)
	}
}

// DecodeState restores state saved by EncodeState into a shadow heap
// freshly built by NewShadowHeap with the same Config.
func (s *ShadowHeap) DecodeState(d *snapshot.Decoder) {
	d.Section("shadow")
	s.sampleCountdown = d.I64()
	s.tracked = d.I64()
	s.checked = d.I64()
	s.vioCount = d.I64()

	n := d.Len(8 + 8 + 8)
	s.live = &treap{}
	for i := 0; i < n; i++ {
		key := d.U64()
		rec := record{size: d.Int(), class: d.Int()}
		if d.Err() != nil {
			return
		}
		s.live.insert(key, rec)
	}

	n = d.Len(8 + 8 + 8)
	s.freed = make(map[uint64]record, n)
	for i := 0; i < n; i++ {
		a := d.U64()
		rec := record{size: d.Int(), class: d.Int()}
		if d.Err() != nil {
			return
		}
		s.freed[a] = rec
	}

	n = d.Len(4 * 3)
	s.violations = nil
	for i := 0; i < n; i++ {
		v := Violation{Tier: d.String(), Kind: Kind(d.String()), Detail: d.String()}
		if d.Err() != nil {
			return
		}
		s.violations = append(s.violations, v)
	}
}
