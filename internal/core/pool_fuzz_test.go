package core

import (
	"testing"

	"wsmalloc/internal/check"
	"wsmalloc/internal/mem"
	"wsmalloc/internal/rng"
	"wsmalloc/internal/span"
	"wsmalloc/internal/topology"
)

// checkSpanIDs asserts the span slab's reuse contract across the
// allocator: while an ID is free (its slot is zeroed, so Pages is 0) no
// page names it, every mapped page names an in-use span covering it
// with the span's class byte, and the slab's in-use count equals the
// spans the central free lists hold plus the large spans the page map
// names — so no list holds a freed ID either (CheckInvariants also
// reports a zeroed span on a list).
func checkSpanIDs(t *testing.T, a *Allocator) {
	t.Helper()
	large := map[span.ID]bool{}
	a.pagemap.EachSet(func(p mem.PageID, raw uint32) {
		id := span.ID(raw)
		s := a.spans.At(id)
		if s.Pages == 0 {
			t.Fatalf("page %#x names free span ID %d", p, id)
		}
		if p < s.Start || p >= s.Start+mem.PageID(s.Pages) {
			t.Fatalf("page %#x names span ID %d at [%#x, +%d)", p, id, s.Start, s.Pages)
		}
		if _, tag := a.pagemap.Lookup(p); tag != span.ClassTag(s.ClassIndex) {
			t.Fatalf("page %#x caches class %d, its span is class %d", p, span.TagClass(tag), s.ClassIndex)
		}
		if s.ClassIndex == span.LargeClass {
			large[id] = true
		}
	})
	inUse := len(large)
	for _, l := range a.cfls {
		inUse += l.Stats().Spans
	}
	if inUse != a.spans.Len() {
		t.Fatalf("%d spans listed or mapped large, slab has %d in use", inUse, a.spans.Len())
	}
}

// FuzzPooledNodeReuse targets the ID and node free lists on the hot path
// (span IDs in the slab, hugepage trackers in the filler): the tape is
// biased toward whole-span churn — allocate a burst of same-class
// objects, free the whole burst so the span drains and its ID is freed,
// then immediately reallocate so the freed ID is reused. Under the
// full-coverage shadow heap any aliasing between a reused span and a
// live one shows up as an overlap/double-alloc violation, checkSpanIDs
// proves no page or list still names a freed ID, and CheckInvariants
// cross-audits every tier's structural state. Run with -race in
// scripts/verify.sh.
func FuzzPooledNodeReuse(f *testing.F) {
	f.Add([]byte{8, 0, 8, 1, 8, 2, 8, 3})
	f.Add([]byte{16, 7, 0, 0, 16, 7, 255, 9, 16, 7})
	f.Add([]byte("churn-spans-until-pooled"))

	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 2048 {
			t.Skip()
		}
		cfg := OptimizedConfig()
		cfg.Check = check.DefaultConfig()
		a := New(cfg, topology.New(topology.Default()))

		type burst struct {
			addrs []uint64
			size  int
		}
		var bursts []burst
		now := int64(0)

		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i], int(tape[i+1])
			switch op % 4 {
			case 0, 1: // burst-allocate one size class, enough to fill spans
				size := []int{16, 64, 256, 2048}[arg%4]
				n := 32 + arg%64
				b := burst{size: size}
				for k := 0; k < n; k++ {
					addr, _, err := a.TryMalloc(size, (arg+k)%4)
					if err != nil {
						t.Fatalf("op %d: TryMalloc(%d): %v", i, size, err)
					}
					b.addrs = append(b.addrs, addr)
				}
				bursts = append(bursts, b)
			case 2: // free an entire burst: drains spans into the pools
				if len(bursts) == 0 {
					continue
				}
				j := arg % len(bursts)
				b := bursts[j]
				bursts[j] = bursts[len(bursts)-1]
				bursts = bursts[:len(bursts)-1]
				for _, addr := range b.addrs {
					if _, err := a.TryFree(addr, b.size, arg%4); err != nil {
						t.Fatalf("op %d: TryFree(%#x, %d): %v", i, addr, b.size, err)
					}
				}
				checkSpanIDs(t, a)
			case 3: // background work: decay, subrelease (tracker churn)
				now += 10e6
				a.Tick(now)
			}
		}

		if vs := a.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("audit violations under pooled churn: %v", vs)
		}
		checkSpanIDs(t, a)
		// Explicit no-aliasing assertion on top of the shadow heap: no
		// two live objects may share an address.
		seen := make(map[uint64]bool)
		live := 0
		for _, b := range bursts {
			for _, addr := range b.addrs {
				if seen[addr] {
					t.Fatalf("recycled node aliased a live object at %#x", addr)
				}
				seen[addr] = true
				live++
			}
		}
		if st := a.Stats(); st.LiveObjects != int64(live) {
			t.Fatalf("allocator counts %d live objects, model has %d", st.LiveObjects, live)
		}
		for _, b := range bursts {
			for _, addr := range b.addrs {
				if _, err := a.TryFree(addr, b.size, 0); err != nil {
					t.Fatalf("teardown TryFree(%#x, %d): %v", addr, b.size, err)
				}
			}
		}
		if st := a.Stats(); st.LiveObjects != 0 {
			t.Fatalf("heap not empty after teardown: %d live", st.LiveObjects)
		}
		checkSpanIDs(t, a)
	})
}

// TestPooledChurnStress1M churns one million alloc/free events through
// the pooled path with a full-coverage shadow heap: a bounded live set
// with whole-burst frees keeps spans draining and regrowing, so the
// span and tracker freelists cycle thousands of times. Invariants are
// audited periodically and the shadow heap must stay silent throughout.
func TestPooledChurnStress1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event stress")
	}
	cfg := OptimizedConfig()
	cfg.Check = check.DefaultConfig()
	a := New(cfg, topology.New(topology.Default()))
	r := rng.New(7)

	type obj struct {
		addr uint64
		size int
	}
	sizes := []int{16, 64, 256, 2048}
	var live []obj
	events, now := 0, int64(0)
	for events < 1_000_000 {
		if len(live) < 4096 && (len(live) == 0 || r.Bool(0.55)) {
			// Burst-allocate one class so whole spans fill and drain.
			size := sizes[r.Intn(len(sizes))]
			for k := 0; k < 64; k++ {
				addr, _, err := a.TryMalloc(size, k%4)
				if err != nil {
					t.Fatalf("event %d: TryMalloc(%d): %v", events, size, err)
				}
				live = append(live, obj{addr, size})
				events++
			}
		} else {
			// Free a contiguous run (often a whole span's worth).
			n := 64
			if n > len(live) {
				n = len(live)
			}
			base := r.Intn(len(live) - n + 1)
			for _, o := range live[base : base+n] {
				if _, err := a.TryFree(o.addr, o.size, r.Intn(4)); err != nil {
					t.Fatalf("event %d: TryFree(%#x, %d): %v", events, o.addr, o.size, err)
				}
				events++
			}
			live = append(live[:base], live[base+n:]...)
		}
		if events%100_000 < 64 {
			now += 10e6
			a.Tick(now)
			if vs := a.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("event %d: audit violations: %v", events, vs)
			}
		}
	}
	st := a.Stats()
	if st.LiveObjects != int64(len(live)) {
		t.Fatalf("allocator counts %d live, model has %d", st.LiveObjects, len(live))
	}
	for _, o := range live {
		if _, err := a.TryFree(o.addr, o.size, 0); err != nil {
			t.Fatalf("teardown TryFree(%#x, %d): %v", o.addr, o.size, err)
		}
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("final audit: %v", vs)
	}
	if st := a.Stats(); st.LiveObjects != 0 || st.LiveRequestedBytes != 0 {
		t.Fatalf("heap not empty after teardown: %+v", st)
	}
}
