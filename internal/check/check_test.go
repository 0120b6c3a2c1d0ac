package check

import (
	"reflect"
	"testing"
)

func TestShadowCleanAllocFree(t *testing.T) {
	s := NewShadowHeap(DefaultConfig())
	if v := s.RecordAlloc(0x1000, 64, 3); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	if v, tracked := s.CheckFree(0x1000, 64, 3); v != nil || !tracked {
		t.Fatalf("CheckFree = %v tracked=%v", v, tracked)
	}
	if s.ViolationCount() != 0 {
		t.Fatalf("violations = %d", s.ViolationCount())
	}
	if s.LiveTracked() != 0 {
		t.Fatalf("live tracked = %d", s.LiveTracked())
	}
}

func TestShadowDetectsDoubleFree(t *testing.T) {
	s := NewShadowHeap(DefaultConfig())
	s.RecordAlloc(0x1000, 64, 3)
	s.CheckFree(0x1000, 64, 3)
	v, tracked := s.CheckFree(0x1000, 64, 3)
	if v == nil || !tracked || v.Kind != KindDoubleFree {
		t.Fatalf("want double-free, got %v", v)
	}
}

func TestShadowDetectsUnknownFree(t *testing.T) {
	s := NewShadowHeap(DefaultConfig())
	v, tracked := s.CheckFree(0xdead000, 8, 0)
	if v == nil || !tracked || v.Kind != KindUnknownFree {
		t.Fatalf("want unknown-free, got %v", v)
	}
}

func TestShadowDetectsSizeAndClassMismatch(t *testing.T) {
	s := NewShadowHeap(DefaultConfig())
	s.RecordAlloc(0x1000, 64, 3)
	if v, _ := s.CheckFree(0x1000, 128, 3); v == nil || v.Kind != KindSizeMismatch {
		t.Fatalf("want size mismatch, got %v", v)
	}
	s.RecordAlloc(0x2000, 64, 3)
	if v, _ := s.CheckFree(0x2000, 64, 7); v == nil || v.Kind != KindSizeMismatch {
		t.Fatalf("want class mismatch, got %v", v)
	}
}

func TestShadowDetectsOverlap(t *testing.T) {
	s := NewShadowHeap(DefaultConfig())
	s.RecordAlloc(0x1000, 256, 9)
	// Same base address handed out twice.
	if v := s.RecordAlloc(0x1000, 256, 9); v == nil || v.Kind != KindOverlap {
		t.Fatalf("want overlap on duplicate base, got %v", v)
	}
	s = NewShadowHeap(DefaultConfig())
	s.RecordAlloc(0x1000, 256, 9)
	// New allocation starting inside the previous one.
	if v := s.RecordAlloc(0x1080, 64, 3); v == nil || v.Kind != KindOverlap {
		t.Fatalf("want overlap on interior base, got %v", v)
	}
	s = NewShadowHeap(DefaultConfig())
	s.RecordAlloc(0x1080, 64, 3)
	// New allocation extending over a live successor.
	if v := s.RecordAlloc(0x1000, 256, 9); v == nil || v.Kind != KindOverlap {
		t.Fatalf("want overlap over successor, got %v", v)
	}
}

func TestShadowSampledModeNeverFlagsUntracked(t *testing.T) {
	s := NewShadowHeap(Config{Mode: ModeSampled, SampleEvery: 4})
	var tracked int
	for i := 0; i < 64; i++ {
		addr := uint64(0x1000 + i*128)
		s.RecordAlloc(addr, 64, 3)
		if v, wasTracked := s.CheckFree(addr, 64, 3); v != nil {
			t.Fatalf("clean free flagged: %v", v)
		} else if wasTracked {
			tracked++
		}
	}
	if tracked == 0 || tracked == 64 {
		t.Fatalf("sampled mode tracked %d/64 frees; want strictly between", tracked)
	}
	// A free the shadow heap never saw must not be reported in sampled mode.
	if v, wasTracked := s.CheckFree(0xffff0000, 8, 0); v != nil || wasTracked {
		t.Fatalf("sampled mode flagged untracked free: %v", v)
	}
}

func TestShadowReallocatedAddressIsNotDoubleFree(t *testing.T) {
	s := NewShadowHeap(DefaultConfig())
	s.RecordAlloc(0x1000, 64, 3)
	s.CheckFree(0x1000, 64, 3)
	s.RecordAlloc(0x1000, 64, 3) // allocator reuses the slot
	if v, _ := s.CheckFree(0x1000, 64, 3); v != nil {
		t.Fatalf("reallocated slot flagged: %v", v)
	}
}

func TestShadowViolationCap(t *testing.T) {
	s := NewShadowHeap(Config{Mode: ModeFull, MaxViolations: 2})
	for i := 0; i < 5; i++ {
		s.CheckFree(uint64(0x9000+i*8), 8, 0)
	}
	if len(s.Violations()) != 2 {
		t.Fatalf("stored %d violations, want cap 2", len(s.Violations()))
	}
	if s.ViolationCount() != 5 {
		t.Fatalf("counted %d violations, want 5", s.ViolationCount())
	}
}

func TestTreapOrderedOps(t *testing.T) {
	tr := &treap{}
	keys := []uint64{50, 10, 90, 30, 70, 20, 80, 40, 60}
	for _, k := range keys {
		tr.insert(k, record{size: int(k)})
	}
	if tr.size != len(keys) {
		t.Fatalf("size = %d", tr.size)
	}
	if k, _, ok := tr.floor(55); !ok || k != 50 {
		t.Fatalf("floor(55) = %d,%v", k, ok)
	}
	if k, _, ok := tr.ceiling(55); !ok || k != 60 {
		t.Fatalf("ceiling(55) = %d,%v", k, ok)
	}
	if _, _, ok := tr.floor(5); ok {
		t.Fatal("floor(5) should not exist")
	}
	if _, _, ok := tr.ceiling(95); ok {
		t.Fatal("ceiling(95) should not exist")
	}
	for _, k := range keys {
		tr.remove(k)
		if _, ok := tr.lookup(k); ok {
			t.Fatalf("key %d still present after remove", k)
		}
	}
	if tr.size != 0 {
		t.Fatalf("size after removals = %d", tr.size)
	}
}

func TestCountByKind(t *testing.T) {
	vs := []Violation{
		Violationf("a", KindDoubleFree, "x"),
		Violationf("b", KindDoubleFree, "y"),
		Violationf("c", KindAccounting, "z"),
	}
	m := CountByKind(vs)
	if m[KindDoubleFree] != 2 || m[KindAccounting] != 1 {
		t.Fatalf("CountByKind = %v", m)
	}
}

func TestPointerPath(t *testing.T) {
	type inner struct {
		a [2]uint64
		s []byte
	}
	for _, c := range []struct {
		v    any
		want string
	}{
		{struct{ a, b uint32 }{}, ""},
		{[4][2]int64{}, ""},
		{struct{ x [3]inner }{}, "T.x[].s (slice)"},
		{struct {
			n int
			p *int
		}{}, "T.p (ptr)"},
		{struct{ s string }{}, "T.s (string)"},
		{[0]*int{}, ""},
	} {
		if got := PointerPath(reflect.TypeOf(c.v), "T"); got != c.want {
			t.Errorf("PointerPath(%T) = %q, want %q", c.v, got, c.want)
		}
	}
}
