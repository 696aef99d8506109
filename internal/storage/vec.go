package storage

import "fmt"

// BlockVec is a scatter-gather buffer: an ordered list of byte segments,
// each a whole number of blocks, addressing one contiguous block range of a
// device. It is the unit of the zero-copy I/O contract — a merged request
// hands the device the callers' own buffers instead of gathering them into
// a scratch copy, the way the kernel's bio_vec carries pages instead of a
// flat buffer.
//
// A BlockVec never owns its segments; it is a view over buffers the caller
// provides, and Slice returns sub-views sharing the same memory. Devices
// must treat read segments as write-only destinations and write segments as
// read-only sources.
//
// The representation is a small-vec: the first segment lives inline in the
// struct and only vecs with two or more segments carry a spine slice. A
// single-segment vec — the overwhelmingly common shape on the thin I/O hot
// path, where Slice carves per-extent sub-vectors out of one caller buffer —
// is therefore built, copied and sliced without allocating.
type BlockVec struct {
	bs   int
	seg0 []byte   // first segment, inline; nil means the vec is empty
	rest [][]byte // segments after the first; nil for 0- and 1-segment vecs
}

// Vec builds a BlockVec over segs for block size bs. Every segment must be
// a non-empty whole number of blocks; Vec panics otherwise (a malformed vec
// is a programming error, like an out-of-range slice). Multi-segment vecs
// keep segs[1:] as their spine, sharing the caller's backing array.
func Vec(bs int, segs ...[]byte) BlockVec {
	if bs <= 0 {
		panic("storage: non-positive block size")
	}
	for _, s := range segs {
		if len(s) == 0 || len(s)%bs != 0 {
			panic(fmt.Sprintf("storage: vec segment of %d bytes, block size %d", len(s), bs))
		}
	}
	v := BlockVec{bs: bs}
	if len(segs) > 0 {
		v.seg0 = segs[0]
	}
	if len(segs) > 1 {
		v.rest = segs[1:]
	}
	return v
}

// VecOne builds the single-segment vec over seg, with the same validity
// rules as Vec. It is Vec specialized for the flat-buffer wrappers on the
// I/O hot path: the variadic Vec lets its segment list escape into the
// multi-segment spine, so even one-segment calls cost the temporary slice
// an allocation — VecOne takes no slice at all and stays allocation-free.
func VecOne(bs int, seg []byte) BlockVec {
	if bs <= 0 {
		panic("storage: non-positive block size")
	}
	if len(seg) == 0 || len(seg)%bs != 0 {
		panic(fmt.Sprintf("storage: vec segment of %d bytes, block size %d", len(seg), bs))
	}
	return BlockVec{bs: bs, seg0: seg}
}

// BlockSize returns the block size the vec's segments are counted in.
func (v BlockVec) BlockSize() int { return v.bs }

// Len returns the vec's total length in blocks.
func (v BlockVec) Len() int {
	if v.seg0 == nil {
		// Covers the zero-value BlockVec too, whose bs is 0.
		return 0
	}
	n := len(v.seg0) / v.bs
	for _, s := range v.rest {
		n += len(s) / v.bs
	}
	return n
}

// Bytes returns the vec's total length in bytes.
func (v BlockVec) Bytes() int {
	n := len(v.seg0)
	for _, s := range v.rest {
		n += len(s)
	}
	return n
}

// Segments returns how many segments the vec holds.
func (v BlockVec) Segments() int {
	if v.seg0 == nil {
		return 0
	}
	return 1 + len(v.rest)
}

// Seg returns segment i. The returned slice aliases the caller-owned
// buffer.
func (v BlockVec) Seg(i int) []byte {
	if i == 0 {
		if v.seg0 == nil {
			panic("storage: segment index out of range")
		}
		return v.seg0
	}
	return v.rest[i-1]
}

// Slice returns the sub-vector covering blocks [blockOff, blockOff+nBlocks)
// of v. The result shares the underlying segment memory — no bytes move —
// with the boundary segments resliced as needed. A result that fits in one
// segment (every sub-vector of a single-segment vec, and most per-extent
// carves on the thin hot path) is returned inline without allocating.
// Slice panics when the range exceeds the vec, mirroring slice-expression
// semantics.
func (v BlockVec) Slice(blockOff, nBlocks int) BlockVec {
	if blockOff < 0 || nBlocks < 0 {
		panic("storage: negative vec slice bounds")
	}
	if nBlocks == 0 {
		return BlockVec{bs: v.bs}
	}
	nseg := v.Segments()
	first := 0
	off := blockOff * v.bs
	for first < nseg && off >= len(v.Seg(first)) {
		off -= len(v.Seg(first))
		first++
	}
	rem := nBlocks * v.bs
	out := BlockVec{bs: v.bs}
	for i := first; i < nseg && rem > 0; i++ {
		s := v.Seg(i)[off:]
		off = 0
		if len(s) > rem {
			s = s[:rem]
		}
		rem -= len(s)
		if out.seg0 == nil {
			out.seg0 = s
		} else {
			out.rest = append(out.rest, s)
		}
	}
	if rem > 0 {
		panic(fmt.Sprintf("storage: vec slice [%d, %d) of %d-block vec",
			blockOff, blockOff+nBlocks, v.Len()))
	}
	return out
}

// Range calls fn for every segment in order with the segment's block offset
// inside the vec. fn returning an error stops the walk and Range returns
// it.
func (v BlockVec) Range(fn func(blockOff int, seg []byte) error) error {
	if v.seg0 == nil {
		return nil
	}
	if err := fn(0, v.seg0); err != nil {
		return err
	}
	off := len(v.seg0) / v.bs
	for _, s := range v.rest {
		if err := fn(off, s); err != nil {
			return err
		}
		off += len(s) / v.bs
	}
	return nil
}

// VecDevice is the vectored transfer surface of the two leaf devices
// (MemDevice, FileDevice), and the middle rung of Do's ladder — which
// neither leaf takes, both being Doers, but the frozen bench module's
// timing shim does: a vec operation moves v.Len() consecutive device
// blocks through the vec's segments in order, in one call. It may fail
// with no partial effects or with a prefix transferred, reported via
// PartialError (counted in blocks across all segments). Stacking layers do not implement it — they
// implement Doer.
type VecDevice interface {
	Device
	// ReadBlocksVec copies blocks [start, start+v.Len()) into the vec's
	// segments in order.
	ReadBlocksVec(start uint64, v BlockVec) error
	// WriteBlocksVec stores the vec's segments, in order, as blocks
	// [start, start+v.Len()).
	WriteBlocksVec(start uint64, v BlockVec) error
}

// checkVecIO validates a vec request against a device geometry. A vec
// whose block size disagrees with the device's is rejected; zero-length
// vecs are valid no-ops.
func checkVecIO(start uint64, v BlockVec, blockSize int, numBlocks uint64) error {
	if v.seg0 == nil {
		return nil
	}
	if v.bs != blockSize {
		return fmt.Errorf("%w: vec block size %d, device %d",
			ErrBadBuffer, v.bs, blockSize)
	}
	n := uint64(v.Len())
	if start >= numBlocks || n > numBlocks-start {
		return fmt.Errorf("%w: blocks [%d, %d), device has %d",
			ErrOutOfRange, start, start+n, numBlocks)
	}
	return nil
}
