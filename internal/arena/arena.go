// Package arena is index-addressed storage for a machine's bulk
// simulator state (spans, death-wheel chunks). An Arena grows in blocks
// of BlockLen elements: an element never moves once placed, growth never
// copies, and a run allocates what it uses plus at most one block.
// Element types hold no Go pointers, so the garbage collector never scans
// the blocks; only the short block index is a pointer slice.
package arena

// BlockLen is the number of elements per block.
const BlockLen = 64

// Arena is a growable sequence of T addressed by 32-bit index. The zero
// value is an empty arena.
type Arena[T any] struct {
	blocks []*[BlockLen]T
	n      uint32
}

// Len returns the number of elements placed.
func (a *Arena[T]) Len() int { return int(a.n) }

// At returns element i. The pointer stays valid for the arena's lifetime.
func (a *Arena[T]) At(i uint32) *T { return &a.blocks[i/BlockLen][i%BlockLen] }

// Run returns the n elements from i, which must lie in one block.
func (a *Arena[T]) Run(i, n uint32) []T {
	o := i % BlockLen
	return a.blocks[i/BlockLen][o : o+n]
}

// Grow places a zero element at the end and returns its index.
func (a *Arena[T]) Grow() uint32 {
	i := a.n
	if i%BlockLen == 0 {
		a.blocks = append(a.blocks, (*[BlockLen]T)(make([]T, BlockLen)))
	}
	a.n++
	return i
}
