package workload

import (
	"slices"

	"wsmalloc/internal/arena"
	"wsmalloc/internal/snapshot"
)

// deathBucketNs is the granularity of the death wheel.
const deathBucketNs = 100 * Microsecond

// wheelRingSize is the number of near-future death buckets kept in a
// flat ring — ~410 ms of virtual time, past the warped lifetime of
// almost every object, so the per-op schedule/drain path is an array
// index instead of map traffic (the map was a top entry in fleet CPU
// profiles). Deaths beyond the window overflow into the far map. Power
// of two so the slot index is a mask.
const (
	wheelRingSize = 4096
	wheelMask     = wheelRingSize - 1
)

// wheelChunkObjs is the number of objects per wheel chunk.
const wheelChunkObjs = 32

// wheelChunk is one link of a death bucket's chain: wheelChunkObjs
// objects in insertion order (fewer in the chain's tail chunk) and the
// index of the next chunk (0 ends the chain). It holds no Go pointers.
type wheelChunk struct {
	objs [wheelChunkObjs]object
	next uint32
}

// chain is a death bucket's FIFO of chunks; head 0 is an empty bucket.
// n counts the objects in the tail chunk, so scheduling an object
// touches only the cache line it is written to.
type chain struct{ head, tail, n uint32 }

// deathWheel schedules each live object's free by death bucket. Bucket b
// sits in ring slot b&wheelMask while b is inside the window [cur,
// cur+wheelRingSize) at insertion; any other bucket is a far chain until
// the window reaches it. Every chain is a FIFO of chunks drawn from one
// pointer-free arena with a free list, so steady-state scheduling
// allocates nothing.
//
// Free order is bucket order, each bucket in insertion order: a bucket's
// far part first, then its ring part. Every far insert for a bucket
// happens strictly before the window (which only moves forward) admits
// that bucket's ring inserts, so the two parts concatenate in insertion
// order.
type deathWheel struct {
	chunks arena.Arena[wheelChunk] // chunk 0 is reserved
	free   uint32                  // free chunks, linked through next
	ring   [wheelRingSize]chain
	far    map[int64]chain
	cur    int64
}

func newDeathWheel() *deathWheel {
	w := &deathWheel{far: make(map[int64]chain)}
	w.chunks.Grow()
	return w
}

// inWindow reports whether bucket b lies in the ring's current window
// [cur, cur+wheelRingSize), so ring slot b&wheelMask holds it.
func (w *deathWheel) inWindow(b int64) bool {
	return b >= w.cur && b-w.cur < wheelRingSize
}

// insert schedules o to die in bucket b.
func (w *deathWheel) insert(b int64, o object) {
	if w.inWindow(b) {
		w.push(&w.ring[b&wheelMask], o)
		return
	}
	c := w.far[b]
	w.push(&c, o)
	w.far[b] = c
}

// push appends o to chain c, linking a fresh chunk when the tail is full.
func (w *deathWheel) push(c *chain, o object) {
	if c.tail == 0 || c.n == wheelChunkObjs {
		id := w.free
		if id != 0 {
			w.free = w.chunks.At(id).next
		} else {
			id = w.chunks.Grow()
		}
		w.chunks.At(id).next = 0
		if c.tail == 0 {
			c.head = id
		} else {
			w.chunks.At(c.tail).next = id
		}
		c.tail, c.n = id, 0
	}
	w.chunks.At(c.tail).objs[c.n] = o
	c.n++
}

// objs returns the objects chunk id of chain c holds.
func (w *deathWheel) objs(c chain, id uint32) []object {
	if id == c.tail {
		return w.chunks.At(id).objs[:c.n]
	}
	return w.chunks.At(id).objs[:]
}

// consume passes chain c's objects to fn a chunk at a time, in order,
// and returns its chunks to the free list.
func (w *deathWheel) consume(c chain, fn func([]object)) {
	for id := c.head; id != 0; {
		fn(w.objs(c, id))
		ch := w.chunks.At(id)
		next := ch.next
		ch.next = w.free
		w.free = id
		id = next
	}
}

// advance frees every bucket in [cur, nowBucket] in bucket order,
// passing its objects to fn, and moves the window to start at nowBucket.
func (w *deathWheel) advance(nowBucket int64, fn func([]object)) {
	for b := w.cur; b <= nowBucket; b++ {
		if len(w.far) > 0 {
			if c, ok := w.far[b]; ok {
				delete(w.far, b)
				w.consume(c, fn)
			}
		}
		if slot := &w.ring[b&wheelMask]; slot.head != 0 {
			c := *slot
			*slot = chain{}
			w.consume(c, fn)
		}
		w.cur = b
	}
}

// each visits every populated bucket in bucket order with its far and
// ring chains (either may be empty): the far buckets behind the window,
// the window, then the far buckets beyond it.
func (w *deathWheel) each(fn func(b int64, far, ring chain)) {
	keys := make([]int64, 0, len(w.far))
	for b := range w.far {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	fi := 0
	for b := w.cur; b < w.cur+wheelRingSize; b++ {
		ring := w.ring[b&wheelMask]
		if ring.head == 0 {
			continue
		}
		for ; fi < len(keys) && keys[fi] < b; fi++ {
			fn(keys[fi], w.far[keys[fi]], chain{})
		}
		var head chain
		if fi < len(keys) && keys[fi] == b {
			head = w.far[b]
			fi++
		}
		fn(b, head, ring)
	}
	for ; fi < len(keys); fi++ {
		fn(keys[fi], w.far[keys[fi]], chain{})
	}
}

// drain frees every scheduled object in bucket order and empties the
// wheel; the window stays where it is.
func (w *deathWheel) drain(fn func([]object)) {
	w.each(func(_ int64, far, ring chain) {
		w.consume(far, fn)
		w.consume(ring, fn)
	})
	w.ring = [wheelRingSize]chain{}
	clear(w.far)
}

// count returns the number of objects in chain c.
func (w *deathWheel) count(c chain) int {
	n := 0
	for id := c.head; id != 0; id = w.chunks.At(id).next {
		n += len(w.objs(c, id))
	}
	return n
}

// encode writes one entry per populated bucket in ascending bucket
// order, each bucket's objects in free order (far part first), so a
// bucket held both far and in the ring is one entry.
func (w *deathWheel) encode(e *snapshot.Encoder) {
	n := 0
	w.each(func(int64, chain, chain) { n++ })
	e.Len(n)
	put := func(objs []object) { encodeObjects(e, objs) }
	w.each(func(b int64, far, ring chain) {
		e.I64(b)
		e.Len(w.count(far) + w.count(ring))
		w.walk(far, put)
		w.walk(ring, put)
	})
}

// walk passes chain c's objects to fn a chunk at a time, in order.
func (w *deathWheel) walk(c chain, fn func([]object)) {
	for id := c.head; id != 0; id = w.chunks.At(id).next {
		fn(w.objs(c, id))
	}
}

// decode replaces the wheel's buckets with those encode wrote, routing
// each through the insert path against the current window, and returns
// the number of objects restored.
func (w *deathWheel) decode(dec *snapshot.Decoder) int64 {
	w.drain(func([]object) {})
	nb := dec.Len(8 + 4)
	var total int64
	for i := 0; i < nb && dec.Err() == nil; i++ {
		b := dec.I64()
		no := dec.Len(8 + 4)
		if dec.Err() != nil {
			break
		}
		if w.inWindow(b) && w.ring[b&wheelMask].head != 0 || w.far[b].head != 0 {
			dec.Fail("workload: duplicate death bucket %d", b)
			break
		}
		for j := 0; j < no; j++ {
			w.insert(b, object{addr: dec.U64(), size: dec.Int()})
		}
		total += int64(no)
	}
	return total
}
