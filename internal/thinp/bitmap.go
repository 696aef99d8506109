// Package thinp reproduces Linux dm-thin (thin provisioning): a pool built
// from a data device and a metadata device, exposing virtual "thin" volumes
// whose physical blocks are allocated on first write and tracked in a global
// free-space bitmap plus per-volume mappings (paper Sec. II-C, Fig. 1).
//
// MobiCeal's kernel contribution is a modification of exactly this target
// (Sec. V-A): the sequential allocator is replaced with a random one, and a
// dummy-write mechanism fires on public provisioning writes. Both are
// implemented here as pluggable pieces — Allocator and DummyPolicy — so the
// stock and MobiCeal behaviours can be benchmarked side by side.
package thinp

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// ErrBitmapFull reports an allocation attempt on a bitmap with no free bits.
var ErrBitmapFull = errors.New("thinp: no free blocks")

// Bitmap is the pool's global free-space bitmap: one bit per data block,
// set = allocated. It is the structure that prevents public or dummy data
// from overwriting hidden data (paper Sec. IV-A Q3): hidden allocations are
// marked here like any others, and the marking is deniable because dummy
// allocations look identical.
//
// The bitmap itself is not a synchronized structure: word mutation is the
// caller's problem. The sharded pool partitions the words into disjoint
// per-shard ranges and serializes mutation of each range under its shard
// lock; the allocation count is atomic so Free/Allocated stay coherent
// across concurrent shard-disjoint mutation.
type Bitmap struct {
	words  []uint64
	nbits  uint64
	nalloc atomic.Uint64
}

// NewBitmap returns an all-free bitmap tracking nbits blocks.
func NewBitmap(nbits uint64) *Bitmap {
	return &Bitmap{
		words: make([]uint64, (nbits+63)/64),
		nbits: nbits,
	}
}

// Size returns the number of tracked blocks.
func (b *Bitmap) Size() uint64 { return b.nbits }

// Allocated returns the number of allocated blocks.
func (b *Bitmap) Allocated() uint64 { return b.nalloc.Load() }

// Free returns the number of free blocks.
func (b *Bitmap) Free() uint64 { return b.nbits - b.nalloc.Load() }

func (b *Bitmap) check(i uint64) error {
	if i >= b.nbits {
		return fmt.Errorf("thinp: bitmap index %d out of %d", i, b.nbits)
	}
	return nil
}

// IsAllocated reports whether block i is allocated. Out-of-range indexes
// report true so callers never treat them as allocatable.
func (b *Bitmap) IsAllocated(i uint64) bool {
	if i >= b.nbits {
		return true
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Set marks block i allocated.
func (b *Bitmap) Set(i uint64) error {
	if err := b.check(i); err != nil {
		return err
	}
	w, m := i/64, uint64(1)<<(i%64)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.nalloc.Add(1)
	}
	return nil
}

// Clear marks block i free.
func (b *Bitmap) Clear(i uint64) error {
	if err := b.check(i); err != nil {
		return err
	}
	w, m := i/64, uint64(1)<<(i%64)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.nalloc.Add(^uint64(0))
	}
	return nil
}

// NthFree returns the index of the n-th free block (0-based) in ascending
// order. It fails with ErrBitmapFull if fewer than n+1 blocks are free.
// Random allocation is built on this: pick n uniformly in [0, Free()) and
// take the n-th free block (paper Sec. V-A "we generate a random number i
// between 1 and x; the i-th free block is the result").
func (b *Bitmap) NthFree(n uint64) (uint64, error) {
	if n >= b.Free() {
		return 0, fmt.Errorf("%w: want %d-th free of %d", ErrBitmapFull, n, b.Free())
	}
	remaining := n
	for w, word := range b.words {
		freeInWord := uint64(64 - popcount(word))
		if uint64(w) == uint64(len(b.words)-1) {
			// The last word may extend past nbits; count only real bits.
			tail := b.nbits - uint64(w)*64
			freeInWord = tail - uint64(popcount(word&mask(tail)))
		}
		if remaining >= freeInWord {
			remaining -= freeInWord
			continue
		}
		for bit := uint64(0); bit < 64; bit++ {
			idx := uint64(w)*64 + bit
			if idx >= b.nbits {
				break
			}
			if word&(1<<bit) == 0 {
				if remaining == 0 {
					return idx, nil
				}
				remaining--
			}
		}
	}
	return 0, ErrBitmapFull
}

// NextFree returns the first free block at or after start, wrapping around
// once — the stock sequential allocation order.
func (b *Bitmap) NextFree(start uint64) (uint64, error) {
	if b.Free() == 0 {
		return 0, ErrBitmapFull
	}
	if start >= b.nbits {
		start = 0
	}
	for off := uint64(0); off < b.nbits; off++ {
		idx := (start + off) % b.nbits
		if !b.IsAllocated(idx) {
			return idx, nil
		}
	}
	return 0, ErrBitmapFull
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	c := &Bitmap{words: words, nbits: b.nbits}
	c.nalloc.Store(b.nalloc.Load())
	return c
}

// MarshalTo serializes the bitmap's words into buf (little-endian) and
// returns the byte length used. buf must hold MarshaledLen bytes.
func (b *Bitmap) MarshalTo(buf []byte) (int, error) {
	need := b.MarshaledLen()
	if len(buf) < need {
		return 0, fmt.Errorf("thinp: bitmap buffer %d < %d", len(buf), need)
	}
	for i, w := range b.words {
		putUint64(buf[i*8:], w)
	}
	return need, nil
}

// MarshaledLen returns the serialized byte length.
func (b *Bitmap) MarshaledLen() int { return len(b.words) * 8 }

// UnmarshalBitmap reconstructs a bitmap of nbits blocks from buf.
func UnmarshalBitmap(nbits uint64, buf []byte) (*Bitmap, error) {
	b := NewBitmap(nbits)
	if len(buf) < b.MarshaledLen() {
		return nil, fmt.Errorf("thinp: bitmap region %d < %d", len(buf), b.MarshaledLen())
	}
	var nalloc uint64
	for i := range b.words {
		b.words[i] = getUint64(buf[i*8:])
		nalloc += uint64(popcount(b.words[i] & wordMask(uint64(i), nbits)))
		b.words[i] &= wordMask(uint64(i), nbits)
	}
	b.nalloc.Store(nalloc)
	return b, nil
}

func wordMask(word, nbits uint64) uint64 {
	if (word+1)*64 <= nbits {
		return ^uint64(0)
	}
	if word*64 >= nbits {
		return 0
	}
	return mask(nbits - word*64)
}

// mask returns a mask of the low n bits (n in [0, 64]).
func mask(n uint64) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// freeInRange counts the free bits covered by words [w0, w1), honoring the
// nbits boundary in the final word.
func (b *Bitmap) freeInRange(w0, w1 int) uint64 {
	var free uint64
	for w := w0; w < w1; w++ {
		m := wordMask(uint64(w), b.nbits)
		free += uint64(popcount(m)) - uint64(popcount(b.words[w]&m))
	}
	return free
}

// nthFreeInRange returns the block index of the rank-th free bit (0-based,
// ascending) within words [w0, w1). It reports false if the range holds
// fewer than rank+1 free bits. Because shards own ascending contiguous word
// ranges, decomposing a global rank across shards and resolving the local
// remainder here selects exactly the block the global NthFree would.
func (b *Bitmap) nthFreeInRange(w0, w1 int, rank uint64) (uint64, bool) {
	remaining := rank
	for w := w0; w < w1; w++ {
		m := wordMask(uint64(w), b.nbits)
		freeBits := ^b.words[w] & m
		n := uint64(bits.OnesCount64(freeBits))
		if remaining >= n {
			remaining -= n
			continue
		}
		// Select the remaining-th set bit of freeBits.
		for i := uint64(0); i < remaining; i++ {
			freeBits &= freeBits - 1
		}
		return uint64(w)*64 + uint64(bits.TrailingZeros64(freeBits)), true
	}
	return 0, false
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}
