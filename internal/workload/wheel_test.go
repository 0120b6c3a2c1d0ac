package workload

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"wsmalloc/internal/check"
	"wsmalloc/internal/snapshot"
)

// refWheel is the reference death wheel: one map from bucket to its
// objects in insertion order, and the window start.
type refWheel struct {
	buckets map[int64][]object
	cur     int64
}

func (r *refWheel) insert(b int64, o object) { r.buckets[b] = append(r.buckets[b], o) }

// advance frees buckets [cur, nowBucket] in order, as processDeaths does.
func (r *refWheel) advance(nowBucket int64) []object {
	var freed []object
	for _, b := range r.sorted() {
		if b >= r.cur && b <= nowBucket {
			freed = append(freed, r.buckets[b]...)
			delete(r.buckets, b)
		}
	}
	r.cur = max(r.cur, nowBucket)
	return freed
}

// drain frees every bucket in order, as DrainRemaining does.
func (r *refWheel) drain() []object {
	var freed []object
	for _, b := range r.sorted() {
		freed = append(freed, r.buckets[b]...)
	}
	clear(r.buckets)
	return freed
}

func (r *refWheel) sorted() []int64 {
	keys := make([]int64, 0, len(r.buckets))
	for b := range r.buckets {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	return keys
}

func (r *refWheel) encode() []byte {
	var e snapshot.Encoder
	keys := r.sorted()
	e.Len(len(keys))
	for _, b := range keys {
		e.I64(b)
		e.Len(len(r.buckets[b]))
		encodeObjects(&e, r.buckets[b])
	}
	return e.Finish()
}

// FuzzDeathWheel checks the chunked death wheel against the reference
// map wheel. The tape schedules objects into near, far, window-edge and
// behind-window buckets and interleaves the wheel operations behind the
// driver's processDeaths (advance), Restart (drain, discarding),
// DrainRemaining (drain) and an EncodeState/DecodeState round trip; the
// free order of every advance and drain and the encoded bytes of every
// round trip must match the reference's.
func FuzzDeathWheel(f *testing.F) {
	f.Add([]byte{0, 5, 1, 9, 2, 1, 3, 4, 4, 0, 5, 0, 6, 0})
	f.Add([]byte{1, 200, 1, 201, 2, 2, 0, 7, 4, 255, 6, 0, 3, 0, 0, 3, 4, 16})
	f.Add([]byte("near far edge behind, advance past the ring, round trip"))
	// A bucket scheduled far, then reached by the window and scheduled
	// again in the ring, round-tripped, then freed: far part first.
	f.Add([]byte{2, 0, 5, 1, 3, 1, 0, 1, 6, 0, 5, 15})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4096 {
			t.Skip()
		}
		w := newDeathWheel()
		ref := &refWheel{buckets: map[int64][]object{}}
		var next uint64
		var freed []object
		collect := func(objs []object) { freed = append(freed, objs...) }
		same := func(op string, want []object) {
			t.Helper()
			if !slices.Equal(freed, want) {
				t.Fatalf("%s freed %v, reference freed %v", op, freed, want)
			}
			freed = freed[:0]
		}
		for i := 0; i+1 < len(tape); i += 2 {
			// The op byte's high bits fine-tune a bucket offset.
			op, fine, x := tape[i]%8, int64(tape[i]>>3), int64(tape[i+1])
			var b int64
			switch op {
			case 0, 1: // near: inside the window (or just past it)
				b = w.cur + x*16 + fine
			case 2: // far: beyond the window
				b = w.cur + wheelRingSize + x*37 + fine
			case 3: // window edges: its first, last and first-beyond buckets
				b = w.cur + []int64{0, wheelRingSize - 1, wheelRingSize}[x%3]
			case 4: // behind the window
				b = w.cur - 1 - x
			case 5: // processDeaths: a short step, sometimes past a whole ring
				nb := w.cur + x%32
				if x%16 == 15 {
					nb = w.cur + wheelRingSize + x
				}
				w.advance(nb, collect)
				same("advance", ref.advance(nb))
				continue
			case 6: // EncodeState/DecodeState round trip
				var e snapshot.Encoder
				w.encode(&e)
				blob := e.Finish()
				if want := ref.encode(); !bytes.Equal(blob, want) {
					t.Fatalf("encoded wheel differs from the reference encoding")
				}
				dec, err := snapshot.NewDecoder(blob)
				if err != nil {
					t.Fatal(err)
				}
				back := newDeathWheel()
				back.cur = w.cur
				back.decode(dec)
				if err := dec.Err(); err != nil {
					t.Fatalf("decode: %v", err)
				}
				var again snapshot.Encoder
				back.encode(&again)
				if !bytes.Equal(again.Finish(), blob) {
					t.Fatal("re-encoding the decoded wheel changed the bytes")
				}
				w = back
				continue
			case 7: // DrainRemaining, or Restart's discarding drain
				if x%2 == 0 {
					w.drain(collect)
					same("drain", ref.drain())
				} else {
					w.drain(func([]object) {})
					ref.drain()
				}
				continue
			}
			next++
			o := object{addr: next, size: int(next) * 8}
			w.insert(b, o)
			ref.insert(b, o)
		}
		w.drain(collect)
		same("final drain", ref.drain())
	})
}

// TestWheelChunkHoldsNoPointers pins the arena contract: a wheel chunk
// holds no Go pointers, so the chunk arena is never scanned.
func TestWheelChunkHoldsNoPointers(t *testing.T) {
	if p := check.PointerPath(reflect.TypeOf(wheelChunk{}), "wheelChunk"); p != "" {
		t.Fatalf("wheel chunk holds a Go pointer at %s", p)
	}
}

// TestWheelReusesChunks: a wheel that schedules and frees the same load
// over and over draws its chunks from the free list, so the arena stops
// growing after the first round.
func TestWheelReusesChunks(t *testing.T) {
	w := newDeathWheel()
	round := func(r int) {
		base := int64(r) * 100
		for i := 0; i < 1000; i++ {
			w.insert(base+int64(i%50), object{addr: uint64(i), size: 8})
		}
		var n int
		w.advance(base+99, func(objs []object) { n += len(objs) })
		if n != 1000 {
			t.Fatalf("round %d freed %d objects, want 1000", r, n)
		}
	}
	round(0)
	grown := w.chunks.Len()
	for r := 1; r < 5; r++ {
		round(r)
	}
	if w.chunks.Len() != grown {
		t.Fatalf("chunk arena grew from %d to %d on a steady load", grown, w.chunks.Len())
	}
}
