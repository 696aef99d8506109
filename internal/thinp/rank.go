package thinp

import (
	"math/bits"
	"slices"
)

// rankGroupBits sets the rank index granularity: one count per 512 slots,
// which is eight bitmap words or one page-table leaf.
const rankGroupBits = 9

// rankIndex is a Fenwick tree over the occupied counts of consecutive
// 512-slot groups of a space of slots slots (the last group may be
// partial). It answers the two queries the allocator bitmap and the page
// table need in O(log groups): how many slots below a group boundary are
// occupied (prefix), and which group holds the r-th free slot (selectFree).
type rankIndex struct {
	slots uint64
	fen   []uint64 // 1-based
}

func newRankIndex(slots uint64) rankIndex {
	n := (slots + 1<<rankGroupBits - 1) >> rankGroupBits
	return rankIndex{slots: slots, fen: make([]uint64, n+1)}
}

func (x *rankIndex) groups() int { return len(x.fen) - 1 }

func (x *rankIndex) clone() rankIndex {
	return rankIndex{slots: x.slots, fen: slices.Clone(x.fen)}
}

// add adds delta to group g's count; ^uint64(0) decrements.
func (x *rankIndex) add(g int, delta uint64) {
	for i := g + 1; i < len(x.fen); i += i & -i {
		x.fen[i] += delta
	}
}

// prefix returns the occupied count of groups [0, n).
func (x *rankIndex) prefix(n int) uint64 {
	var s uint64
	for i := n; i > 0; i -= i & -i {
		s += x.fen[i]
	}
	return s
}

// capPrefix returns how many slots groups [0, n) cover.
func (x *rankIndex) capPrefix(n int) uint64 {
	return min(uint64(n)<<rankGroupBits, x.slots)
}

// selectFree returns the group holding the r-th (0-based, ascending) free
// slot and r's rank among that group's free slots. r must be below the
// free total.
func (x *rankIndex) selectFree(r uint64) (g int, rem uint64) {
	n := x.groups()
	if n == 0 {
		return 0, r
	}
	for bit := 1 << (bits.Len(uint(n)) - 1); bit > 0; bit >>= 1 {
		next := g + bit
		if next > n {
			continue
		}
		if free := x.capPrefix(next) - x.capPrefix(g) - x.fen[next]; r >= free {
			r -= free
			g = next
		}
	}
	return g, r
}
