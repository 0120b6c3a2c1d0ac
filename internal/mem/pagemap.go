package mem

// PageMap is a three-level radix tree from PageID to a 32-bit span ID
// and a size-class byte, mirroring TCMalloc's PageMap that resolves any
// address to its owning span during free() and caches the span's size
// class so a small free never has to touch the span. With a 48-bit
// address space and 13-bit pages there are 35 bits of page number, split
// 12/11/12 across the levels.
//
// Nodes hold no Go pointers: interior nodes link leaves by index, and ID
// 0 means "unmapped". Interior nodes live in one slice; leaves are placed
// pmLeafBlock to a block and never move. Node 0 and leaf 0 are
// permanently empty, so a lookup through an unpopulated branch reads
// zeros without a nil check. Nodes are placed on first use and never
// freed.
//
// The zero value is not usable; call NewPageMap.
type PageMap struct {
	root    [pmRootSize]uint32
	mids    []pmMid
	leaves  []*[pmLeafBlock]pmLeaf
	nleaves uint32
	count   int64
}

const (
	pmRootBits = 12
	pmMidBits  = 11
	pmLeafBits = 12

	pmRootSize = 1 << pmRootBits
	pmMidSize  = 1 << pmMidBits
	pmLeafSize = 1 << pmLeafBits

	pmPageBits = pmRootBits + pmMidBits + pmLeafBits // 35

	// pmLeafBlock is the number of leaves (32 MiB of address space
	// each) placed per allocation.
	pmLeafBlock = 4
)

type pmMid struct {
	leaves [pmMidSize]uint32
}

type pmLeaf struct {
	ids     [pmLeafSize]uint32
	classes [pmLeafSize]uint8
}

// NewPageMap returns an empty pagemap.
func NewPageMap() *PageMap {
	m := &PageMap{mids: make([]pmMid, 1)}
	m.newLeaf()
	return m
}

func pmIndices(p PageID) (int, int, int) {
	if uint64(p) >= 1<<pmPageBits {
		panic("mem: page id outside simulated address space")
	}
	leaf := int(p) & (pmLeafSize - 1)
	mid := int(p>>pmLeafBits) & (pmMidSize - 1)
	root := int(p >> (pmLeafBits + pmMidBits))
	return root, mid, leaf
}

// leaf returns leaf i.
func (m *PageMap) leaf(i uint32) *pmLeaf {
	return &m.leaves[i/pmLeafBlock][i%pmLeafBlock]
}

// newLeaf places an empty leaf and returns its index.
func (m *PageMap) newLeaf() uint32 {
	i := m.nleaves
	if i%pmLeafBlock == 0 {
		m.leaves = append(m.leaves, (*[pmLeafBlock]pmLeaf)(make([]pmLeaf, pmLeafBlock)))
	}
	m.nleaves++
	return i
}

// leafOf returns the leaf covering page p, or the empty leaf 0.
func (m *PageMap) leafOf(p PageID) (*pmLeaf, int) {
	ri, mi, li := pmIndices(p)
	return m.leaf(m.mids[m.root[ri]].leaves[mi]), li
}

// ensureLeaf returns the leaf covering page p, creating it (and its
// interior node) on first use.
func (m *PageMap) ensureLeaf(p PageID) (*pmLeaf, int) {
	ri, mi, li := pmIndices(p)
	if m.root[ri] == 0 {
		m.root[ri] = uint32(len(m.mids))
		m.mids = append(m.mids, pmMid{})
	}
	mid := &m.mids[m.root[ri]]
	if mid.leaves[mi] == 0 {
		mid.leaves[mi] = m.newLeaf()
	}
	return m.leaf(mid.leaves[mi]), li
}

// Set maps page p to span id with size-class byte class. ID 0 is
// reserved for "unmapped" and panics.
func (m *PageMap) Set(p PageID, id uint32, class uint8) {
	m.SetRange(p, 1, id, class)
}

// SetRange maps n consecutive pages starting at p to id and class,
// walking the tree once per leaf.
func (m *PageMap) SetRange(p PageID, n int, id uint32, class uint8) {
	if id == 0 {
		panic("mem: pagemap ID 0 is reserved for unmapped pages")
	}
	for n > 0 {
		leaf, li := m.ensureLeaf(p)
		k := min(n, pmLeafSize-li)
		ids, classes := leaf.ids[li:li+k], leaf.classes[li:li+k]
		for i := range ids {
			if ids[i] == 0 {
				m.count++
			}
			ids[i] = id
			classes[i] = class
		}
		p += PageID(k)
		n -= k
	}
}

// Get returns the span ID mapped at page p, or 0 if none is.
func (m *PageMap) Get(p PageID) uint32 {
	id, _ := m.Lookup(p)
	return id
}

// Lookup returns the span ID and size-class byte mapped at page p; the
// ID is 0 (and the class meaningless) if the page is unmapped. A page
// outside the address space panics on the root index.
func (m *PageMap) Lookup(p PageID) (id uint32, class uint8) {
	i := m.mids[m.root[p>>(pmLeafBits+pmMidBits)]].leaves[(p>>pmLeafBits)&(pmMidSize-1)]
	leaf := &m.leaves[i/pmLeafBlock][i%pmLeafBlock]
	li := p & (pmLeafSize - 1)
	return leaf.ids[li], leaf.classes[li]
}

// Clear removes the mapping for page p if present.
func (m *PageMap) Clear(p PageID) { m.ClearRange(p, 1) }

// ClearRange removes the mappings for n consecutive pages starting at
// p, walking the tree once per leaf.
func (m *PageMap) ClearRange(p PageID, n int) {
	for n > 0 {
		leaf, li := m.leafOf(p)
		k := min(n, pmLeafSize-li)
		if leaf != m.leaf(0) {
			ids, classes := leaf.ids[li:li+k], leaf.classes[li:li+k]
			for i := range ids {
				if ids[i] != 0 {
					m.count--
				}
				ids[i] = 0
				classes[i] = 0
			}
		}
		p += PageID(k)
		n -= k
	}
}

// Len returns the number of mapped pages.
func (m *PageMap) Len() int64 { return m.count }
