package arena

import "testing"

func TestArenaGrowsInPlace(t *testing.T) {
	var a Arena[[3]uint64]
	var ptrs []*[3]uint64
	const n = 2*BlockLen + 3
	for i := 0; i < n; i++ {
		if got := a.Grow(); got != uint32(i) {
			t.Fatalf("Grow = %d, want %d", got, i)
		}
		p := a.At(uint32(i))
		if *p != ([3]uint64{}) {
			t.Fatalf("element %d not zero", i)
		}
		p[0] = uint64(i)
		ptrs = append(ptrs, p)
	}
	if a.Len() != n || len(a.blocks) != 3 {
		t.Fatalf("Len %d in %d blocks, want %d in 3", a.Len(), len(a.blocks), n)
	}
	for i, p := range ptrs {
		if p != a.At(uint32(i)) || p[0] != uint64(i) {
			t.Fatalf("element %d moved or changed", i)
		}
	}
}
