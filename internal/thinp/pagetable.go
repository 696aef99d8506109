package thinp

import (
	"math/bits"
	"slices"
)

// The per-thin mapping structure: a two-level dense page table keyed by
// virtual block. Leaves are fixed-size arrays of physical block numbers
// (ptUnmapped marking holes), so the hot-path lookup a thin I/O performs is
// two array indexes instead of a hash probe, marshaling walks entries in
// vblock order with no sort, and extent-run coalescing in the range ops
// touches memory sequentially.
//
// A rank index over per-leaf occupancy counts (rank.go) supports two
// queries the flat-cost commit and the dummy-write picker need in
// O(log leaves): rank(vb) — the byte position of an entry inside the
// marshaled segment — and selectUnmapped(r) — the r-th unmapped virtual
// block, which replaces the linear-scan fallback that made late dummy
// writes on dense volumes scale with the volume size.
const (
	ptLeafBits = rankGroupBits // one leaf per index group
	ptLeafSize = 1 << ptLeafBits
	ptLeafMask = ptLeafSize - 1
	// ptUnmapped marks a hole. No physical block can collide with it: it
	// would require a data device of 2^64 blocks.
	ptUnmapped = ^uint64(0)
)

// ptLeaf holds the mappings of ptLeafSize consecutive virtual blocks, and
// the leaf's share of the table's delta since the last commit fold: added
// and removed carry one bit per entry, and listed says the leaf is on the
// table's dirty-leaf list.
type ptLeaf struct {
	occ            int // mapped entries in this leaf
	listed         bool
	added, removed [ptLeafSize / 64]uint64
	ents           [ptLeafSize]uint64
}

// pageTable maps virtual block numbers to physical block numbers.
type pageTable struct {
	virtBlocks uint64
	count      uint64
	leaves     []*ptLeaf
	idx        rankIndex // per-leaf occupancy

	// The delta: dirtyLeaves lists each leaf holding an added or removed
	// bit once, and nAdded/nRemoved count the bits.
	dirtyLeaves []int
	nAdded      int
	nRemoved    int
}

// newPageTable returns an empty table over virtBlocks virtual blocks.
func newPageTable(virtBlocks uint64) *pageTable {
	n := int((virtBlocks + ptLeafSize - 1) / ptLeafSize)
	return &pageTable{
		virtBlocks: virtBlocks,
		leaves:     make([]*ptLeaf, n),
		idx:        newRankIndex(virtBlocks),
	}
}

// get returns the physical block vb maps to.
func (p *pageTable) get(vb uint64) (uint64, bool) {
	if vb >= p.virtBlocks {
		return 0, false
	}
	l := p.leaves[vb>>ptLeafBits]
	if l == nil {
		return 0, false
	}
	pb := l.ents[vb&ptLeafMask]
	if pb == ptUnmapped {
		return 0, false
	}
	return pb, true
}

// mapped reports whether vb is mapped.
func (p *pageTable) mapped(vb uint64) bool {
	_, ok := p.get(vb)
	return ok
}

// set maps vb to pb, creating its leaf on first touch. An out-of-range vb
// is a caller bug and panics rather than marshaling an entry the on-disk
// format forbids.
func (p *pageTable) set(vb, pb uint64) {
	if vb >= p.virtBlocks {
		panic("thinp: page table set out of range")
	}
	li := int(vb >> ptLeafBits)
	l := p.leaves[li]
	if l == nil {
		l = &ptLeaf{}
		for i := range l.ents {
			l.ents[i] = ptUnmapped
		}
		p.leaves[li] = l
	}
	if l.ents[vb&ptLeafMask] == ptUnmapped {
		l.occ++
		p.count++
		p.idx.add(li, 1)
	}
	l.ents[vb&ptLeafMask] = pb
}

// delete unmaps vb, reporting whether it was mapped.
func (p *pageTable) delete(vb uint64) bool {
	if vb >= p.virtBlocks {
		return false
	}
	li := int(vb >> ptLeafBits)
	l := p.leaves[li]
	if l == nil || l.ents[vb&ptLeafMask] == ptUnmapped {
		return false
	}
	l.ents[vb&ptLeafMask] = ptUnmapped
	l.occ--
	p.count--
	p.idx.add(li, ^uint64(0))
	return true
}

// rank returns how many mapped virtual blocks are strictly below vb — the
// entry index vb occupies (or would occupy) in the marshaled segment.
func (p *pageTable) rank(vb uint64) uint64 {
	if vb > p.virtBlocks {
		vb = p.virtBlocks
	}
	li := int(vb >> ptLeafBits)
	if li >= len(p.leaves) {
		return p.count
	}
	r := p.idx.prefix(li)
	if l := p.leaves[li]; l != nil {
		for i := uint64(0); i < vb&ptLeafMask; i++ {
			if l.ents[i] != ptUnmapped {
				r++
			}
		}
	}
	return r
}

// selectUnmapped returns the r-th (0-based, ascending) unmapped virtual
// block. r must be below virtBlocks-count; the index descent finds the
// leaf in O(log leaves) and one in-leaf scan finds the slot, so the cost is
// independent of the volume size — the property that keeps late dummy
// writes on dense volumes off the O(virtBlocks) cliff.
func (p *pageTable) selectUnmapped(r uint64) (uint64, bool) {
	if r >= p.virtBlocks-p.count {
		return 0, false
	}
	pos, rem := p.idx.selectFree(r)
	start := uint64(pos) << ptLeafBits
	l := p.leaves[pos]
	if l == nil {
		return start + rem, true
	}
	end := p.idx.capPrefix(pos+1) - start
	for i := uint64(0); i < end; i++ {
		if l.ents[i] == ptUnmapped {
			if rem == 0 {
				return start + i, true
			}
			rem--
		}
	}
	// Unreachable: the descent guarantees leaf pos holds the target.
	panic("thinp: page table occupancy accounting out of sync")
}

// walkRange calls fn(i, pb, mapped) for each vblock start+i of [start,
// start+n), walking leaves sequentially so a range request resolves with
// one leaf dereference per ptLeafSize blocks instead of one per block.
// The range must lie within virtBlocks.
func (p *pageTable) walkRange(start, n uint64, fn func(i uint64, pb uint64, mapped bool)) {
	var l *ptLeaf
	li := -1
	for i := uint64(0); i < n; i++ {
		vb := start + i
		if cur := int(vb >> ptLeafBits); cur != li {
			li = cur
			l = p.leaves[li]
		}
		if l == nil {
			fn(i, 0, false)
			continue
		}
		pb := l.ents[vb&ptLeafMask]
		fn(i, pb, pb != ptUnmapped)
	}
}

// forEach calls fn for every mapping in ascending vblock order, stopping
// early when fn returns false.
func (p *pageTable) forEach(fn func(vb, pb uint64) bool) {
	for li, l := range p.leaves {
		if l == nil || l.occ == 0 {
			continue
		}
		base := uint64(li) << ptLeafBits
		seen := 0
		for i := 0; i < ptLeafSize && seen < l.occ; i++ {
			if pb := l.ents[i]; pb != ptUnmapped {
				if !fn(base+uint64(i), pb) {
					return
				}
				seen++
			}
		}
	}
}

// noteMapped records that vb, just mapped, was mapped since the last fold.
func (p *pageTable) noteMapped(vb uint64) {
	l := p.deltaLeaf(vb)
	if bit := uint64(1) << (vb % 64); l.added[(vb&ptLeafMask)/64]&bit == 0 {
		l.added[(vb&ptLeafMask)/64] |= bit
		p.nAdded++
	}
}

// noteUnmapped records that vb, just unmapped, was unmapped. An entry added
// since the last fold simply disappears; an entry the folded segment still
// carries must be spliced out. An entry in both was discarded and
// re-provisioned: same segment position, new physical block.
func (p *pageTable) noteUnmapped(vb uint64) {
	l := p.deltaLeaf(vb)
	w, bit := (vb&ptLeafMask)/64, uint64(1)<<(vb%64)
	if l.added[w]&bit != 0 {
		// If vb was also remapped over a folded entry, its removed bit is
		// already set and stays.
		l.added[w] &^= bit
		p.nAdded--
		return
	}
	if l.removed[w]&bit == 0 {
		l.removed[w] |= bit
		p.nRemoved++
	}
}

// deltaLeaf returns vb's leaf, listing it as dirty. vb's leaf exists: it
// was mapped a moment ago.
func (p *pageTable) deltaLeaf(vb uint64) *ptLeaf {
	li := int(vb >> ptLeafBits)
	l := p.leaves[li]
	if !l.listed {
		l.listed = true
		p.dirtyLeaves = append(p.dirtyLeaves, li)
	}
	return l
}

// dirty reports whether the delta is non-empty.
func (p *pageTable) dirty() bool { return p.nAdded > 0 || p.nRemoved > 0 }

// pureDelta reports whether every removed entry was re-added and nothing
// else changed: the folded segment keeps its entry positions, and only
// physical block numbers move.
func (p *pageTable) pureDelta() bool {
	if p.nAdded != p.nRemoved {
		return false
	}
	for _, li := range p.dirtyLeaves {
		l := p.leaves[li]
		for w := range l.added {
			if l.added[w] != l.removed[w] {
				return false
			}
		}
	}
	return true
}

// appendDelta appends the added (or, with removed set, the removed)
// vblocks to dst in ascending order.
func (p *pageTable) appendDelta(dst []uint64, removed bool) []uint64 {
	slices.Sort(p.dirtyLeaves)
	for _, li := range p.dirtyLeaves {
		l := p.leaves[li]
		set := &l.added
		if removed {
			set = &l.removed
		}
		base := uint64(li) << ptLeafBits
		for w, m := range set {
			for ; m != 0; m &= m - 1 {
				dst = append(dst, base+uint64(w)*64+uint64(bits.TrailingZeros64(m)))
			}
		}
	}
	return dst
}

// resetDelta empties the delta, touching only the listed leaves.
func (p *pageTable) resetDelta() {
	for _, li := range p.dirtyLeaves {
		l := p.leaves[li]
		l.added, l.removed, l.listed = [ptLeafSize / 64]uint64{}, [ptLeafSize / 64]uint64{}, false
	}
	p.dirtyLeaves = p.dirtyLeaves[:0]
	p.nAdded, p.nRemoved = 0, 0
}
