package thinp

import "math/bits"

// blockSet is a set of block numbers below a fixed bound, kept as a
// bitset: one bit per block, plus a summary bit per member word that is
// set when the word is first touched. An insert is a bit-set; iteration
// and reset walk only the summarised words, so a set that carried a large
// delta costs nothing once reset, and a steady insert/reset cycle
// allocates nothing. The commit's transaction record (allocations, frees,
// dirty bitmap words) is made of these.
type blockSet struct {
	words []uint64
	sum   []uint64 // bit w set: words[w] was touched since the last reset
	n     int
}

// newBlockSet returns an empty set over [0, bound).
func newBlockSet(bound uint64) *blockSet {
	nw := (bound + 63) / 64
	return &blockSet{words: make([]uint64, nw), sum: make([]uint64, (nw+63)/64)}
}

// len returns the number of members.
func (s *blockSet) len() int { return s.n }

// has reports whether b is a member.
func (s *blockSet) has(b uint64) bool { return s.words[b/64]&(1<<(b%64)) != 0 }

// add inserts b.
func (s *blockSet) add(b uint64) {
	w := b / 64
	if s.words[w]&(1<<(b%64)) != 0 {
		return
	}
	s.words[w] |= 1 << (b % 64)
	s.sum[w/64] |= 1 << (w % 64)
	s.n++
}

// remove deletes b, reporting whether it was a member. The word stays
// summarised until the next reset.
func (s *blockSet) remove(b uint64) bool {
	w := b / 64
	if s.words[w]&(1<<(b%64)) == 0 {
		return false
	}
	s.words[w] &^= 1 << (b % 64)
	s.n--
	return true
}

// forEach calls fn for every member in ascending order.
func (s *blockSet) forEach(fn func(b uint64)) {
	for si, sw := range s.sum {
		for sw != 0 {
			w := uint64(si)*64 + uint64(bits.TrailingZeros64(sw))
			sw &= sw - 1
			for m := s.words[w]; m != 0; m &= m - 1 {
				fn(w*64 + uint64(bits.TrailingZeros64(m)))
			}
		}
	}
}

// or adds every member of o, a set over the same bound.
func (s *blockSet) or(o *blockSet) {
	for si, sw := range o.sum {
		for sw != 0 {
			w := uint64(si)*64 + uint64(bits.TrailingZeros64(sw))
			sw &= sw - 1
			if m := o.words[w] &^ s.words[w]; m != 0 {
				s.words[w] |= m
				s.sum[w/64] |= 1 << (w % 64)
				s.n += bits.OnesCount64(m)
			}
		}
	}
}

// reset empties the set, clearing only the words touched since the last
// reset, and returns how many it cleared.
func (s *blockSet) reset() int {
	cleared := 0
	for si, sw := range s.sum {
		if sw == 0 {
			continue
		}
		s.sum[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			s.words[uint64(si)*64+uint64(bits.TrailingZeros64(sw))] = 0
			cleared++
		}
	}
	s.n = 0
	return cleared
}
