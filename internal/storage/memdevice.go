package storage

import (
	"fmt"
	"math/bits"
	"sync"
)

// Background describes what unwritten blocks of a MemDevice contain.
//
// PDE systems care deeply about this: hidden-volume schemes (TrueCrypt,
// Mobiflage, MobiPluto) fill the whole disk with randomness at setup time and
// hide ciphertext inside it, while a factory-fresh device reads as zeros.
// Modeling the fill as a *background function* instead of materializing it
// lets simulated devices be large while snapshots and diffs stay exact.
type Background interface {
	// FillBlock writes the background content of block idx into dst.
	FillBlock(idx uint64, dst []byte)
	// Equal reports whether the other background generates identical
	// content (used by snapshot diffing).
	Equal(other Background) bool
}

// ZeroBackground is a Background of all-zero blocks, modeling a blank or
// TRIMmed device.
type ZeroBackground struct{}

var _ Background = ZeroBackground{}

// FillBlock implements Background.
func (ZeroBackground) FillBlock(_ uint64, dst []byte) {
	clear(dst)
}

// Equal implements Background.
func (ZeroBackground) Equal(other Background) bool {
	_, ok := other.(ZeroBackground)
	return ok
}

// Block-store geometry: blocks are grouped into slabs — one contiguous
// allocation each, so a device holding S written blocks costs S/slabBlocks
// allocations instead of S — and slabs are grouped into directories. The
// two fixed levels keep the root small (one pointer per 16384 blocks), and
// give snapshots natural copy-on-write grain: a snapshot seals the current
// generation of directories and slabs, and the first write into a sealed
// structure clones just that structure.
const (
	// 8 blocks per slab balances allocation coalescing against the cost a
	// cold random single-block write pays to materialize (and zero) its
	// whole slab — the write pattern MobiCeal's random allocator produces.
	slabBlockBits = 3
	slabBlocks    = 1 << slabBlockBits // blocks per slab
	slabMask      = slabBlocks - 1
	dirSlabBits   = 11
	dirSlabs      = 1 << dirSlabBits // slabs per directory
	dirBlockBits  = slabBlockBits + dirSlabBits
	dirBlocks     = 1 << dirBlockBits // blocks per directory
)

// slab holds the materialized content of slabBlocks consecutive blocks.
// written tracks which of them were ever explicitly written; the rest of
// data is zero filler that must not shadow the device background.
//
// mu guards data against in-place overwrites (MemDevice.Do): an overwriter
// holds it for its span copy, a reader of a live slab read-locks it for
// its own. It is a leaf lock, taken only while MemDevice.mu is held;
// written changes only under MemDevice.mu held exclusively.
type slab struct {
	mu      sync.RWMutex
	gen     uint64
	written uint64
	data    []byte
}

// slabDir is one directory of slabs.
type slabDir struct {
	gen   uint64
	slabs [dirSlabs]*slab
}

// MemDevice is an in-memory sparse block device with snapshot support. Blocks
// that were never written read as the configured Background. MemDevice is
// safe for concurrent use: reads, and overwrites of blocks already written
// in slabs no snapshot has sealed, share mu and run in parallel; any other
// write holds mu exclusively.
//
// Snapshots are copy-on-write: taking one is O(1) — it seals the current
// slab generation — and the cost of isolating it is paid by subsequent
// writes, which clone only the directories and slabs they actually touch.
type MemDevice struct {
	blockSize int
	numBlocks uint64
	bg        Background

	// gen is the current write generation; rootGen is the generation the
	// root slice belongs to. A snapshot bumps gen, freezing every structure
	// carrying an older generation; writers clone frozen structures on
	// first touch.
	gen     uint64
	rootGen uint64
	root    []*slabDir

	// Every request writes mu's reader count, and the fields above are
	// read by every request (BlockSize by every layer above, per request)
	// and rarely written. The padding keeps them off mu's cache line.
	_       [64]byte
	mu      sync.RWMutex
	closed  bool
	written uint64 // count of explicitly written blocks
}

var (
	_ Doer        = (*MemDevice)(nil)
	_ RangeDevice = (*MemDevice)(nil)
	_ VecDevice   = (*MemDevice)(nil)
)

// NewMemDevice returns a zero-filled in-memory device with numBlocks blocks
// of blockSize bytes.
func NewMemDevice(blockSize int, numBlocks uint64) *MemDevice {
	return NewMemDeviceBackground(blockSize, numBlocks, ZeroBackground{})
}

// NewMemDeviceBackground returns an in-memory device whose unwritten blocks
// read as bg.
func NewMemDeviceBackground(blockSize int, numBlocks uint64, bg Background) *MemDevice {
	if blockSize <= 0 {
		panic("storage: non-positive block size")
	}
	return &MemDevice{
		blockSize: blockSize,
		numBlocks: numBlocks,
		root:      make([]*slabDir, (numBlocks+dirBlocks-1)/dirBlocks),
		bg:        bg,
	}
}

// BlockSize implements Device.
func (d *MemDevice) BlockSize() int { return d.blockSize }

// NumBlocks implements Device.
func (d *MemDevice) NumBlocks() uint64 { return d.numBlocks }

// slabAt returns the slab of root covering block idx, or nil.
func slabAt(root []*slabDir, idx uint64) *slab {
	dir := root[idx>>dirBlockBits]
	if dir == nil {
		return nil
	}
	return dir.slabs[(idx>>slabBlockBits)&(dirSlabs-1)]
}

// slabForWrite returns the slab covering block idx, creating it if absent
// and cloning any structure sealed by a snapshot. Caller holds d.mu for
// writing.
func (d *MemDevice) slabForWrite(idx uint64) *slab {
	if d.rootGen != d.gen {
		d.root = append([]*slabDir(nil), d.root...)
		d.rootGen = d.gen
	}
	di := idx >> dirBlockBits
	dir := d.root[di]
	if dir == nil {
		dir = &slabDir{gen: d.gen}
		d.root[di] = dir
	} else if dir.gen != d.gen {
		cp := &slabDir{gen: d.gen, slabs: dir.slabs}
		dir = cp
		d.root[di] = dir
	}
	si := (idx >> slabBlockBits) & (dirSlabs - 1)
	s := dir.slabs[si]
	if s == nil {
		s = &slab{gen: d.gen, data: make([]byte, slabBlocks*d.blockSize)}
		dir.slabs[si] = s
	} else if s.gen != d.gen {
		cp := &slab{gen: d.gen, written: s.written, data: append([]byte(nil), s.data...)}
		s = cp
		dir.slabs[si] = s
	}
	return s
}

// ReadBlock implements Device.
func (d *MemDevice) ReadBlock(idx uint64, dst []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	if err := checkIO(idx, dst, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	s := slabAt(d.root, idx)
	if s != nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	readSlabBlock(s, idx, dst, d.blockSize, d.bg)
	return nil
}

// readSlabBlock copies block idx out of s (which covers it), falling back
// to the background for unwritten blocks. s may be nil. It takes no lock:
// a caller reading a live slab holds s.mu for reading.
func readSlabBlock(s *slab, idx uint64, dst []byte, bs int, bg Background) {
	off := idx & slabMask
	if s != nil && s.written&(1<<off) != 0 {
		copy(dst, s.data[int(off)*bs:])
		return
	}
	bg.FillBlock(idx, dst)
}

// WriteBlock implements Device.
func (d *MemDevice) WriteBlock(idx uint64, src []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := checkIO(idx, src, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	s := d.slabForWrite(idx)
	off := idx & slabMask
	copy(s.data[int(off)*d.blockSize:(int(off)+1)*d.blockSize], src)
	if s.written&(1<<off) == 0 {
		s.written |= 1 << off
		d.written++
	}
	return nil
}

// Do implements Doer: a call takes d.mu once, whole. Reads, syncs and
// discards take it shared; a sync only checks that the device is open, and
// a discard is dropped — it is advisory, as on the ladder. A write call
// stays shared when every block it writes is already written in a slab of
// the current generation (overwrites): it then changes no structure and no
// written bit, and each slab span is copied under that slab's own lock, so
// overwrites of different slabs run in parallel. Any other write call —
// a first write, a write into a structure a snapshot sealed, an invalid
// request, a closed device — takes d.mu exclusively and goes through
// writeRangeLocked.
func (d *MemDevice) Do(reqs []Req) error {
	d.mu.RLock()
	shared := true
	for i := range reqs {
		if reqs[i].Op == OpWrite && !d.inPlace(&reqs[i]) {
			shared = false
			break
		}
	}
	if shared {
		defer d.mu.RUnlock()
	} else {
		d.mu.RUnlock()
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	return Each(reqs, func(one []Req) error { return d.serve(&one[0], shared) })
}

// serve runs one request of a Do call. shared says which way the call holds
// d.mu, and so how a write lands.
func (d *MemDevice) serve(r *Req, shared bool) error {
	switch r.Op {
	case OpDiscard:
		return nil
	case OpSync, OpRead, OpWrite:
	default:
		return fmt.Errorf("storage: unknown request op %d", r.Op)
	}
	if d.closed {
		return ErrClosed
	}
	if r.Op == OpSync {
		return nil
	}
	if err := checkVecIO(r.Start, r.Vec, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	return r.Vec.Range(func(off int, seg []byte) error {
		start := r.Start + uint64(off)
		switch {
		case r.Op == OpRead:
			readSlabRange(d.root, d.bg, d.blockSize, start, seg)
		case shared:
			d.overwriteRange(start, seg)
		default:
			d.writeRangeLocked(start, seg)
		}
		return nil
	})
}

// inPlace reports whether write r may run under d.mu held shared: the
// device is open, r is valid, and every block of r is already written in a
// slab that, with its directory and the root, belongs to the current
// generation — so the write clones nothing, materialises nothing and sets
// no written bit, and no snapshot shares the bytes it overwrites. Caller
// holds d.mu.
func (d *MemDevice) inPlace(r *Req) bool {
	if d.closed || d.rootGen != d.gen || checkVecIO(r.Start, r.Vec, d.blockSize, d.numBlocks) != nil {
		return false
	}
	for idx, end := r.Start, r.Start+uint64(r.Vec.Len()); idx < end; {
		dir := d.root[idx>>dirBlockBits]
		if dir == nil || dir.gen != d.gen {
			return false
		}
		s := dir.slabs[(idx>>slabBlockBits)&(dirSlabs-1)]
		off := idx & slabMask
		span := min(slabBlocks-off, end-idx)
		if s == nil || s.gen != d.gen || !covers(s.written, off, span) {
			return false
		}
		idx += span
	}
	return true
}

// overwriteRange stores the block range [start, start+len(src)/bs), which
// inPlace vouched for: one bulk copy per slab span, under the slab's lock.
// Caller holds d.mu shared.
func (d *MemDevice) overwriteRange(start uint64, src []byte) {
	bs := uint64(d.blockSize)
	n := uint64(len(src)) / bs
	for i := uint64(0); i < n; {
		idx := start + i
		s := slabAt(d.root, idx)
		off := idx & slabMask
		span := min(slabBlocks-off, n-i)
		s.mu.Lock()
		copy(s.data[off*bs:(off+span)*bs], src[i*bs:(i+span)*bs])
		s.mu.Unlock()
		i += span
	}
}

// readSlabRange reads the validated block range [start, start+len(dst)/bs)
// out of a slab tree: fully-written slab spans become single bulk copies,
// the rest falls back per block to the background. Each span is read under
// its slab's read lock, so it never sees half an in-place overwrite. Shared
// by MemDevice (under d.mu) and the immutable Snapshot, whose sealed slabs
// no one writes: their lock is never contended.
func readSlabRange(root []*slabDir, bg Background, bs int, start uint64, dst []byte) {
	n := uint64(len(dst) / bs)
	for i := uint64(0); i < n; {
		idx := start + i
		s := slabAt(root, idx)
		// Blocks of the request inside this slab.
		span := slabBlocks - (idx & slabMask)
		if span > n-i {
			span = n - i
		}
		out := dst[i*uint64(bs) : (i+span)*uint64(bs)]
		if s != nil {
			s.mu.RLock()
		}
		if s != nil && covers(s.written, idx&slabMask, span) {
			copy(out, s.data[(idx&slabMask)*uint64(bs):])
		} else {
			for j := uint64(0); j < span; j++ {
				readSlabBlock(s, idx+j, out[j*uint64(bs):(j+1)*uint64(bs)], bs, bg)
			}
		}
		if s != nil {
			s.mu.RUnlock()
		}
		i += span
	}
}

// covers reports whether the written mask has all span bits set starting at
// bit off.
func covers(written, off, span uint64) bool {
	m := (^uint64(0) >> (64 - span)) << off
	return written&m == m
}

// writeRangeLocked stores the validated block range [start,
// start+len(src)/bs): one slab resolution and one bulk copy per slab span.
// Caller holds d.mu for writing.
func (d *MemDevice) writeRangeLocked(start uint64, src []byte) {
	bs := d.blockSize
	n := uint64(len(src) / bs)
	for i := uint64(0); i < n; {
		idx := start + i
		s := d.slabForWrite(idx)
		off := idx & slabMask
		span := slabBlocks - off
		if span > n-i {
			span = n - i
		}
		copy(s.data[off*uint64(bs):(off+span)*uint64(bs)], src[i*uint64(bs):(i+span)*uint64(bs)])
		m := (^uint64(0) >> (64 - span)) << off
		d.written += uint64(bits.OnesCount64(m &^ s.written))
		s.written |= m
		i += span
	}
}

// ReadBlocks, WriteBlocks, ReadBlocksVec and WriteBlocksVec implement
// RangeDevice and VecDevice as one-request Do calls; the bench module's
// timing shim asserts both interfaces on the backend.

// ReadBlocks implements RangeDevice.
func (d *MemDevice) ReadBlocks(start uint64, dst []byte) error {
	return ReadBlocks(d, start, dst)
}

// WriteBlocks implements RangeDevice.
func (d *MemDevice) WriteBlocks(start uint64, src []byte) error {
	return WriteBlocks(d, start, src)
}

// ReadBlocksVec implements VecDevice.
func (d *MemDevice) ReadBlocksVec(start uint64, v BlockVec) error {
	return ReadBlocksVec(d, start, v)
}

// WriteBlocksVec implements VecDevice.
func (d *MemDevice) WriteBlocksVec(start uint64, v BlockVec) error {
	return WriteBlocksVec(d, start, v)
}

// Sync implements Device. Memory devices have no volatile buffer, so Sync
// only validates the device is open.
func (d *MemDevice) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Snapshot captures a full point-in-time image of the device, the operation
// the paper's multi-snapshot adversary performs at each checkpoint.
//
// The capture is copy-on-write: it shares the device's slab tree and bumps
// the write generation, so the snapshot itself is O(1) and later device
// writes clone only the slabs they dirty. Per checkpoint the total cost is
// O(blocks written since the previous snapshot), not O(all written blocks).
func (d *MemDevice) Snapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := &Snapshot{
		blockSize: d.blockSize,
		numBlocks: d.numBlocks,
		root:      d.root,
		bg:        d.bg,
	}
	d.gen++
	return snap
}
