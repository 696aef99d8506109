// Package minifs is a small inode-based block file system used as the
// "Ext4" stand-in of the reproduction. MobiCeal's claim is file-system
// friendliness: because PDE lives in the block layer, any block file system
// mounts unmodified on a thin volume (paper Sec. I, IV). minifs plays that
// role — it knows nothing about PDE, issues ordinary block I/O with the
// spatial locality typical of extent-based file systems (footnote 3 of the
// paper), and is used by the dd- and Bonnie-style workloads.
//
// Layout: superblock | journal descriptor | journal data | block bitmap |
// inode table | data blocks. The root directory is inode 1 and holds a flat
// namespace, which is all the workloads need.
//
// Like its kernel counterpart in data=ordered mode, minifs commits its
// metadata transactionally: Sync shadow-pages dirty pointer blocks and the
// root directory into fresh blocks, stages the changed bitmap and inode
// blocks in the journal region, seals the transaction with a checksummed
// descriptor, and only then writes them in place (see persist.go). Mount
// replays a sealed journal, so a power cut at any point leaves the file
// system at exactly the previous or the new Sync — file data follows
// ordered-mode semantics (fresh file content is durable before the
// metadata that references it; in-place overwrites of existing file bytes
// are not atomic, as on ext4).
package minifs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mobiceal/internal/storage"
)

// File system errors.
var (
	// ErrNotFormatted reports a device without a minifs superblock.
	ErrNotFormatted = errors.New("minifs: device not formatted")
	// ErrExists reports creation of a duplicate name.
	ErrExists = errors.New("minifs: file exists")
	// ErrNotFound reports a lookup miss.
	ErrNotFound = errors.New("minifs: file not found")
	// ErrNoSpace reports block or inode exhaustion.
	ErrNoSpace = errors.New("minifs: no space left on device")
	// ErrNameTooLong reports a file name over 255 bytes.
	ErrNameTooLong = errors.New("minifs: name too long")
	// ErrFileTooBig reports a write past the maximum mappable offset.
	ErrFileTooBig = errors.New("minifs: file too big")
	// ErrClosedFile reports I/O on a removed file.
	ErrClosedFile = errors.New("minifs: file removed")
)

const (
	magic        = 0x6d696e69_66730002
	inodeSize    = 128
	numDirect    = 10
	rootIno      = 1
	maxNameLen   = 255
	modeFree     = 0
	modeFile     = 1
	modeDir      = 2
	minBlockSize = 512
)

type superblock struct {
	blockSize    int
	totalBlocks  uint64
	inodeCount   uint32
	jdescStart   uint64
	jdescBlocks  uint64
	jdataStart   uint64
	jdataBlocks  uint64
	bitmapStart  uint64
	bitmapBlocks uint64
	inodeStart   uint64
	inodeBlocks  uint64
	dataStart    uint64
}

type inode struct {
	mode      uint32
	size      uint64
	direct    [numDirect]uint64
	indirect  uint64
	dindirect uint64
}

// FS is a mounted minifs instance. It caches metadata in memory and
// persists it on Sync, like a real kernel file system with a dirty cache.
// FS is safe for concurrent use.
type FS struct {
	mu     sync.Mutex
	dev    storage.Device
	sb     superblock
	bitmap []bool // data-region block bitmap, indexed from dataStart
	inodes []inode
	dir    map[string]uint32 // root directory: name -> ino
	cursor uint64            // first-fit allocation cursor (spatial locality)

	// Pointer (indirect) blocks are cached dirty in memory and flushed on
	// Sync, like a kernel FS buffer cache. Without this, every data-block
	// allocation would interleave a pointer-block write and destroy the
	// spatial locality the workloads depend on. freshPtr marks pointer
	// blocks allocated since the last Sync: no committed metadata
	// references them, so Sync can write them in place, while a dirty
	// pointer block of committed metadata must be shadow-paged to a fresh
	// location first (persist.go).
	ptrCache map[uint64][]uint64
	ptrDirty map[uint64]bool
	freshPtr map[uint64]bool

	// Journal state (persist.go). gen is the journal transaction
	// generation. lastBitmap and lastInodes hold the marshaled metadata
	// regions as of the previous Sync, so only changed blocks are
	// journaled. pendingFree holds blocks freed since the last committed
	// Sync: they stay unallocatable until the commit lands, because the
	// last durable metadata generation may still reference them and a
	// crash must find their contents intact.
	gen         uint64
	lastBitmap  []byte
	lastInodes  []byte
	pendingFree map[uint64]bool
	// dirDirty marks the root directory as changed since the last Sync,
	// so idle Syncs skip the directory rewrite and take the cheap
	// data-only flush path. replayPending marks a sealed journal whose
	// in-place application failed midway: the journal region must not be
	// reused until that transaction is re-applied, or a crash could
	// strand the half-applied state with no valid journal to repair it.
	dirDirty      bool
	replayPending bool
}

// layoutFor computes the region split for inodeCount inodes on a device of
// total blocks. Only the bitmap and inode regions are ever journaled
// (pointer blocks and the root directory are shadow-paged into fresh
// blocks), so the journal data region sized to hold both in full makes a
// Sync's worst-case transaction fit in one journal pass by construction.
func layoutFor(total uint64, bs int, inodeCount uint32) superblock {
	inodeBlocks := (uint64(inodeCount)*inodeSize + uint64(bs) - 1) / uint64(bs)
	// One bitmap bit per block; sized over the whole device for simplicity.
	bitmapBlocks := (total/8 + uint64(bs) - 1) / uint64(bs)
	jdataBlocks := bitmapBlocks + inodeBlocks
	jdescBlocks := (jdescHeaderLen + 8*jdataBlocks + uint64(bs) - 1) / uint64(bs)
	sb := superblock{
		blockSize:   bs,
		totalBlocks: total,
		inodeCount:  inodeCount,
		jdescStart:  1,
		jdescBlocks: jdescBlocks,
	}
	sb.jdataStart = sb.jdescStart + jdescBlocks
	sb.jdataBlocks = jdataBlocks
	sb.bitmapStart = sb.jdataStart + jdataBlocks
	sb.bitmapBlocks = bitmapBlocks
	sb.inodeStart = sb.bitmapStart + bitmapBlocks
	sb.inodeBlocks = inodeBlocks
	sb.dataStart = sb.inodeStart + inodeBlocks
	return sb
}

// Format writes a fresh empty file system with capacity for inodeCount
// files onto dev and returns it mounted. inodeCount is a cap: on devices
// too small to carry the inode table and its journal alongside useful data
// space, it is scaled down until the layout fits.
func Format(dev storage.Device, inodeCount uint32) (*FS, error) {
	bs := dev.BlockSize()
	if bs < minBlockSize {
		return nil, fmt.Errorf("minifs: block size %d too small", bs)
	}
	if inodeCount < 2 {
		inodeCount = 2
	}
	total := dev.NumBlocks()
	sb := layoutFor(total, bs, inodeCount)
	for sb.dataStart+8 > total && inodeCount > 2 {
		inodeCount /= 2
		sb = layoutFor(total, bs, inodeCount)
	}
	if sb.dataStart+8 > total {
		return nil, fmt.Errorf("minifs: device too small (%d blocks)", total)
	}
	fs := &FS{
		dev:         dev,
		sb:          sb,
		bitmap:      make([]bool, total-sb.dataStart),
		inodes:      make([]inode, inodeCount),
		dir:         make(map[string]uint32),
		ptrCache:    make(map[uint64][]uint64),
		ptrDirty:    make(map[uint64]bool),
		freshPtr:    make(map[uint64]bool),
		pendingFree: make(map[uint64]bool),
	}
	fs.inodes[rootIno].mode = modeDir
	fs.dirDirty = true
	if err := fs.writeSuper(); err != nil {
		return nil, fmt.Errorf("minifs: writing superblock: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return nil, fmt.Errorf("minifs: writing fresh metadata: %w", err)
	}
	return fs, nil
}

// Mount loads an existing file system from dev.
func Mount(dev storage.Device) (*FS, error) {
	fs := &FS{dev: dev}
	if err := fs.load(); err != nil {
		return nil, err
	}
	return fs, nil
}

// BlockSize returns the file system block size.
func (fs *FS) BlockSize() int { return fs.sb.blockSize }

// List returns the sorted names in the root directory.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.dir))
	for name := range fs.dir {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Create makes a new empty file. It fails with ErrExists if name is taken.
func (fs *FS) Create(name string) (*File, error) {
	if len(name) == 0 || len(name) > maxNameLen {
		return nil, ErrNameTooLong
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.dir[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	ino := uint32(0)
	for i := rootIno + 1; i < int(fs.sb.inodeCount); i++ {
		if fs.inodes[i].mode == modeFree {
			ino = uint32(i)
			break
		}
	}
	if ino == 0 {
		return nil, fmt.Errorf("%w: out of inodes", ErrNoSpace)
	}
	fs.inodes[ino] = inode{mode: modeFile}
	fs.dir[name] = ino
	fs.dirDirty = true
	return &File{fs: fs, ino: ino}, nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.dir[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &File{fs: fs, ino: ino}, nil
}

// Remove deletes a file and frees its blocks.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.dir[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err := fs.freeInodeBlocks(&fs.inodes[ino]); err != nil {
		return err
	}
	fs.inodes[ino] = inode{}
	delete(fs.dir, name)
	fs.dirDirty = true
	return nil
}

// CheckIntegrity verifies fsck-style invariants and returns the first
// violation: every live inode's blocks are marked used, no block belongs to
// two files, directory entries reference live file inodes, and no used
// block is unreachable.
func (fs *FS) CheckIntegrity() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	owner := map[uint64]uint32{}
	claim := func(abs uint64, ino uint32) error {
		if abs == 0 {
			return nil
		}
		if prev, dup := owner[abs]; dup {
			return fmt.Errorf("minifs: block %d owned by inodes %d and %d", abs, prev, ino)
		}
		owner[abs] = ino
		if abs < fs.sb.dataStart || abs >= fs.sb.totalBlocks {
			return fmt.Errorf("minifs: inode %d references out-of-range block %d", ino, abs)
		}
		if !fs.bitmap[abs-fs.sb.dataStart] {
			return fmt.Errorf("minifs: inode %d references free block %d", ino, abs)
		}
		return nil
	}
	walk := func(ino uint32, ind *inode) error {
		for _, abs := range ind.direct {
			if err := claim(abs, ino); err != nil {
				return err
			}
		}
		for _, ptr := range []uint64{ind.indirect, ind.dindirect} {
			if ptr == 0 {
				continue
			}
			if err := claim(ptr, ino); err != nil {
				return err
			}
			ptrs, err := fs.readPtrBlock(ptr)
			if err != nil {
				return err
			}
			for _, abs := range ptrs {
				if abs == 0 {
					continue
				}
				if ptr == ind.dindirect {
					// Second level: abs is itself a pointer block.
					if err := claim(abs, ino); err != nil {
						return err
					}
					inner, err := fs.readPtrBlock(abs)
					if err != nil {
						return err
					}
					for _, leaf := range inner {
						if err := claim(leaf, ino); err != nil {
							return err
						}
					}
				} else if err := claim(abs, ino); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := range fs.inodes {
		ind := &fs.inodes[i]
		if ind.mode == modeFree {
			continue
		}
		if err := walk(uint32(i), ind); err != nil {
			return err
		}
	}
	for name, ino := range fs.dir {
		if int(ino) >= len(fs.inodes) || fs.inodes[ino].mode != modeFile {
			return fmt.Errorf("minifs: directory entry %q references bad inode %d", name, ino)
		}
	}
	used := 0
	for _, u := range fs.bitmap {
		if u {
			used++
		}
	}
	if used != len(owner) {
		return fmt.Errorf("minifs: %d blocks marked used but %d reachable (leak)", used, len(owner))
	}
	return nil
}

// allocBlock returns a free data block (absolute index), first-fit from the
// roving cursor — sequential-ish placement like an extent allocator. Blocks
// freed since the last committed Sync are skipped: the last durable
// metadata generation may still reference them, and reusing one before the
// next commit would let a crash expose a half-overwritten block through
// committed pointers.
func (fs *FS) allocBlock() (uint64, error) {
	n := uint64(len(fs.bitmap))
	if n == 0 {
		return 0, ErrNoSpace
	}
	for off := uint64(0); off < n; off++ {
		i := (fs.cursor + off) % n
		if !fs.bitmap[i] && !fs.pendingFree[fs.sb.dataStart+i] {
			fs.bitmap[i] = true
			fs.cursor = i + 1
			return fs.sb.dataStart + i, nil
		}
	}
	return 0, ErrNoSpace
}

func (fs *FS) freeBlock(abs uint64) {
	if abs >= fs.sb.dataStart && abs < fs.sb.totalBlocks {
		fs.bitmap[abs-fs.sb.dataStart] = false
		fs.pendingFree[abs] = true
	}
	delete(fs.ptrCache, abs)
	delete(fs.ptrDirty, abs)
	delete(fs.freshPtr, abs)
}

// allocPtrBlock allocates a block for pointer metadata, installs content in
// the buffer cache and marks it fresh: it is unreferenced by any committed
// metadata, so Sync may write it in place.
func (fs *FS) allocPtrBlock(ptrs []uint64) (uint64, error) {
	abs, err := fs.allocBlock()
	if err != nil {
		return 0, err
	}
	if err := fs.writePtrBlock(abs, ptrs); err != nil {
		return 0, err
	}
	fs.freshPtr[abs] = true
	return abs, nil
}

// ptrsPerBlock returns how many 8-byte block pointers one block holds.
func (fs *FS) ptrsPerBlock() uint64 { return uint64(fs.sb.blockSize / 8) }

// maxFileBlocks returns the largest mappable file size in blocks.
func (fs *FS) maxFileBlocks() uint64 {
	p := fs.ptrsPerBlock()
	return numDirect + p + p*p
}

// readPtrBlock returns a pointer block's entries, from the buffer cache
// when present.
func (fs *FS) readPtrBlock(abs uint64) ([]uint64, error) {
	if ptrs, ok := fs.ptrCache[abs]; ok {
		return ptrs, nil
	}
	buf := make([]byte, fs.sb.blockSize)
	if err := fs.dev.ReadBlock(abs, buf); err != nil {
		return nil, err
	}
	ptrs := make([]uint64, fs.ptrsPerBlock())
	for i := range ptrs {
		ptrs[i] = getUint64(buf[i*8:])
	}
	fs.ptrCache[abs] = ptrs
	return ptrs, nil
}

// writePtrBlock updates a pointer block in the buffer cache; the dirty
// block reaches the device at the next Sync.
func (fs *FS) writePtrBlock(abs uint64, ptrs []uint64) error {
	fs.ptrCache[abs] = ptrs
	fs.ptrDirty[abs] = true
	return nil
}

// flushPtrBlocks writes all dirty pointer blocks to the device. The caller
// (Sync) has already shadow-paged every dirty pointer block of committed
// metadata to a fresh location, so these writes never overwrite a block the
// last durable transaction still references. The blocks go down in address
// order, not map order, so a run's device access pattern is reproducible.
// Caller holds fs.mu.
func (fs *FS) flushPtrBlocks() error {
	buf := make([]byte, fs.sb.blockSize)
	addrs := make([]uint64, 0, len(fs.ptrDirty))
	for abs := range fs.ptrDirty {
		addrs = append(addrs, abs)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, abs := range addrs {
		ptrs := fs.ptrCache[abs]
		for i := range buf {
			buf[i] = 0
		}
		for i, p := range ptrs {
			putUint64(buf[i*8:], p)
		}
		if err := fs.dev.WriteBlock(abs, buf); err != nil {
			return err
		}
	}
	fs.ptrDirty = make(map[uint64]bool)
	return nil
}

// blockFor maps a file-relative block number to an absolute device block,
// allocating missing levels when alloc is true. Returns 0 when the block is
// a hole and alloc is false. The second result reports whether the data
// block was freshly allocated by this call — callers that fail before
// writing it must unwind the mapping, or a former hole would read back
// stale device content instead of zeros.
func (fs *FS) blockFor(ind *inode, fileBlock uint64, alloc bool) (uint64, bool, error) {
	if fileBlock >= fs.maxFileBlocks() {
		return 0, false, ErrFileTooBig
	}
	p := fs.ptrsPerBlock()
	switch {
	case fileBlock < numDirect:
		if ind.direct[fileBlock] == 0 && alloc {
			abs, err := fs.allocBlock()
			if err != nil {
				return 0, false, err
			}
			ind.direct[fileBlock] = abs
			return abs, true, nil
		}
		return ind.direct[fileBlock], false, nil

	case fileBlock < numDirect+p:
		slot := fileBlock - numDirect
		if ind.indirect == 0 {
			if !alloc {
				return 0, false, nil
			}
			abs, err := fs.allocPtrBlock(make([]uint64, p))
			if err != nil {
				return 0, false, err
			}
			ind.indirect = abs
		}
		ptrs, err := fs.readPtrBlock(ind.indirect)
		if err != nil {
			return 0, false, err
		}
		if ptrs[slot] == 0 && alloc {
			abs, err := fs.allocBlock()
			if err != nil {
				return 0, false, err
			}
			ptrs[slot] = abs
			if err := fs.writePtrBlock(ind.indirect, ptrs); err != nil {
				return 0, false, err
			}
			return abs, true, nil
		}
		return ptrs[slot], false, nil

	default:
		rel := fileBlock - numDirect - p
		outerSlot, innerSlot := rel/p, rel%p
		if ind.dindirect == 0 {
			if !alloc {
				return 0, false, nil
			}
			abs, err := fs.allocPtrBlock(make([]uint64, p))
			if err != nil {
				return 0, false, err
			}
			ind.dindirect = abs
		}
		outer, err := fs.readPtrBlock(ind.dindirect)
		if err != nil {
			return 0, false, err
		}
		if outer[outerSlot] == 0 {
			if !alloc {
				return 0, false, nil
			}
			abs, err := fs.allocPtrBlock(make([]uint64, p))
			if err != nil {
				return 0, false, err
			}
			outer[outerSlot] = abs
			if err := fs.writePtrBlock(ind.dindirect, outer); err != nil {
				return 0, false, err
			}
		}
		inner, err := fs.readPtrBlock(outer[outerSlot])
		if err != nil {
			return 0, false, err
		}
		if inner[innerSlot] == 0 && alloc {
			abs, err := fs.allocBlock()
			if err != nil {
				return 0, false, err
			}
			inner[innerSlot] = abs
			if err := fs.writePtrBlock(outer[outerSlot], inner); err != nil {
				return 0, false, err
			}
			return abs, true, nil
		}
		return inner[innerSlot], false, nil
	}
}

// freeInodeBlocks releases every block reachable from ind.
func (fs *FS) freeInodeBlocks(ind *inode) error {
	for _, abs := range ind.direct {
		if abs != 0 {
			fs.freeBlock(abs)
		}
	}
	if ind.indirect != 0 {
		ptrs, err := fs.readPtrBlock(ind.indirect)
		if err != nil {
			return err
		}
		for _, abs := range ptrs {
			if abs != 0 {
				fs.freeBlock(abs)
			}
		}
		fs.freeBlock(ind.indirect)
	}
	if ind.dindirect != 0 {
		outer, err := fs.readPtrBlock(ind.dindirect)
		if err != nil {
			return err
		}
		for _, o := range outer {
			if o == 0 {
				continue
			}
			inner, err := fs.readPtrBlock(o)
			if err != nil {
				return err
			}
			for _, abs := range inner {
				if abs != 0 {
					fs.freeBlock(abs)
				}
			}
			fs.freeBlock(o)
		}
		fs.freeBlock(ind.dindirect)
	}
	return nil
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
