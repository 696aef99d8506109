package minifs

import (
	"fmt"
	"sort"

	"mobiceal/internal/crc"
	"mobiceal/internal/storage"
)

// Metadata journaling (the ext4/jbd2 analogue, data=ordered).
//
// Sync stages every changed bitmap and inode block as (address, content)
// entries in the journal data region, syncs (which also flushes all
// pending file data: ordered mode), then seals the transaction by writing
// the journal descriptor: generation, entry count, entry addresses, and a
// CRC64 over all of it including the entry contents. Only after the
// descriptor is durable are the blocks written in place.
//
// The descriptor write is the atomic commit point. Mount validates the
// descriptor against the journal contents: a valid journal is replayed
// (idempotently) before the in-place metadata is read, so a crash during
// the in-place phase recovers forward to the new Sync; an invalid or stale
// descriptor means the in-place metadata is exactly the previous fully
// applied Sync, so a crash before or during the journal write rolls back.
//
// Pointer blocks and the root directory's data blocks are never journaled:
// Sync shadow-pages them — dirty pointer blocks of committed metadata are
// relocated to freshly allocated blocks (with the parent reference updated
// through the journaled inode table) and the directory is rewritten into
// fresh blocks, none reusable before the commit lands (pendingFree). The
// journal region therefore only ever has to hold the bitmap and inode
// regions, which it is sized for: every Sync commits as exactly one
// transaction.

// jdescHeaderLen is the fixed journal-descriptor prefix: generation u64 |
// entry count u64 | checksum u64; entry addresses follow.
const jdescHeaderLen = 8 + 8 + 8

// marshalBitmap serializes the block bitmap region.
func (fs *FS) marshalBitmap() []byte {
	out := make([]byte, int(fs.sb.bitmapBlocks)*fs.sb.blockSize)
	for i, used := range fs.bitmap {
		if used {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// marshalInodes serializes the inode table region.
func (fs *FS) marshalInodes() []byte {
	out := make([]byte, int(fs.sb.inodeBlocks)*fs.sb.blockSize)
	for i := range fs.inodes {
		marshalInode(&fs.inodes[i], out[i*inodeSize:])
	}
	return out
}

// stageRegion adds to txn every block of region (starting at device block
// start) that differs from prev, the region's content as of the previous
// Sync. A nil prev stages everything.
func (fs *FS) stageRegion(txn map[uint64][]byte, start uint64, region, prev []byte) {
	bs := fs.sb.blockSize
	for b := 0; b*bs < len(region); b++ {
		blk := region[b*bs : (b+1)*bs]
		if prev != nil && (b+1)*bs <= len(prev) && string(blk) == string(prev[b*bs:(b+1)*bs]) {
			continue
		}
		txn[start+uint64(b)] = append([]byte(nil), blk...)
	}
}

// relocateDirtyPtrs shadow-pages every dirty pointer block that committed
// metadata may still reference: its content moves to a freshly allocated
// block, the parent reference — an inode field or an outer pointer block —
// is updated, and the old block is freed but stays reserved until the
// commit lands. Pointer blocks allocated since the last Sync are already
// unreferenced by durable metadata and stay in place. Caller holds fs.mu.
func (fs *FS) relocateDirtyPtrs() error {
	needsMove := func(abs uint64) bool {
		return abs != 0 && fs.ptrDirty[abs] && !fs.freshPtr[abs]
	}
	relocate := func(old uint64) (uint64, error) {
		ptrs := fs.ptrCache[old] // dirty blocks are always cached
		// Allocate before freeing: if allocation fails (device full) the
		// old block must keep its cached dirty content, or the pointer
		// update would be silently lost and the inode left referencing a
		// block marked free. The old block being still allocated also
		// guarantees the replacement is a different block.
		abs, err := fs.allocPtrBlock(ptrs)
		if err != nil {
			return 0, err
		}
		fs.freeBlock(old)
		return abs, nil
	}
	for i := range fs.inodes {
		ind := &fs.inodes[i]
		if ind.mode == modeFree {
			continue
		}
		if needsMove(ind.indirect) {
			abs, err := relocate(ind.indirect)
			if err != nil {
				return err
			}
			ind.indirect = abs
		}
		if ind.dindirect != 0 {
			outer, err := fs.readPtrBlock(ind.dindirect)
			if err != nil {
				return err
			}
			changed := false
			for s, inner := range outer {
				if needsMove(inner) {
					abs, err := relocate(inner)
					if err != nil {
						return err
					}
					outer[s] = abs
					changed = true
				}
			}
			if changed {
				if err := fs.writePtrBlock(ind.dindirect, outer); err != nil {
					return err
				}
			}
			if needsMove(ind.dindirect) {
				abs, err := relocate(ind.dindirect)
				if err != nil {
					return err
				}
				ind.dindirect = abs
			}
		}
	}
	return nil
}

// Sync persists all metadata through the journal: the root directory is
// rewritten into fresh data blocks (as inode 1's data), dirty pointer
// blocks are shadow-paged, and the changed bitmap and inode blocks commit
// as one journal transaction before landing in place. Data blocks are
// written through at WriteAt time, so Sync is a metadata flush with
// ordered-data semantics, matching how a kernel FS commits its dirty
// caches.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	// 0. A sealed transaction whose in-place application failed must be
	//    re-applied before the journal region is reused: overwriting its
	//    entries first would leave the half-applied state unrepairable if
	//    power failed before the next seal.
	if fs.replayPending {
		if err := fs.replayJournal(); err != nil {
			return err
		}
		fs.replayPending = false
	}

	// 1. Serialize the directory into the root inode when it changed. This
	//    allocates fresh blocks (so it must precede the bitmap marshal)
	//    and writes them directly: they are invisible until the inode
	//    table commits.
	if fs.dirDirty {
		dirBytes := fs.marshalDir()
		if err := fs.writeInodeData(&fs.inodes[rootIno], dirBytes); err != nil {
			return fmt.Errorf("minifs: writing root directory: %w", err)
		}
	}

	// 2. Shadow-page committed dirty pointer blocks, then write every
	//    dirty pointer block out — all of them now sit on fresh blocks no
	//    durable metadata references.
	if err := fs.relocateDirtyPtrs(); err != nil {
		return fmt.Errorf("minifs: relocating pointer blocks: %w", err)
	}
	if err := fs.flushPtrBlocks(); err != nil {
		return fmt.Errorf("minifs: flushing pointer blocks: %w", err)
	}

	// 3. Stage the bitmap and inode blocks that changed since the previous
	//    Sync.
	txn := make(map[uint64][]byte)
	bitmapBytes := fs.marshalBitmap()
	fs.stageRegion(txn, fs.sb.bitmapStart, bitmapBytes, fs.lastBitmap)
	inodeBytes := fs.marshalInodes()
	fs.stageRegion(txn, fs.sb.inodeStart, inodeBytes, fs.lastInodes)

	if len(txn) == 0 {
		// No metadata changed; just give pending file data durability.
		return fs.dev.Sync()
	}
	if uint64(len(txn)) > fs.sb.jdataBlocks {
		// Impossible by construction: the journal holds both regions whole.
		return fmt.Errorf("minifs: transaction of %d blocks exceeds journal (%d)",
			len(txn), fs.sb.jdataBlocks)
	}

	// 4. Commit. Entries are sorted by address so in-place application
	//    coalesces into vectored runs.
	addrs := make([]uint64, 0, len(txn))
	for abs := range txn {
		addrs = append(addrs, abs)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	if err := fs.commitTxn(addrs, txn); err != nil {
		return err
	}
	fs.lastBitmap = bitmapBytes
	fs.lastInodes = inodeBytes
	fs.pendingFree = make(map[uint64]bool)
	fs.freshPtr = make(map[uint64]bool)
	fs.dirDirty = false
	return nil
}

// commitTxn runs one journal transaction: entries into the journal region,
// barrier, sealed descriptor, barrier, in-place application, barrier.
func (fs *FS) commitTxn(addrs []uint64, txn map[uint64][]byte) error {
	bs := fs.sb.blockSize

	// Journal entries, in address order, one block per entry.
	entries := make([]byte, len(addrs)*bs)
	for i, abs := range addrs {
		copy(entries[i*bs:], txn[abs])
	}
	if err := storage.WriteFull(fs.dev, fs.sb.jdataStart, entries); err != nil {
		return fmt.Errorf("minifs: writing journal entries: %w", err)
	}
	// Barrier: entries — and, in ordered-mode fashion, all pending file
	// data — are durable before the descriptor can commit the transaction.
	if err := fs.dev.Sync(); err != nil {
		return fmt.Errorf("minifs: syncing journal entries: %w", err)
	}

	// Sealed descriptor: the atomic commit point.
	desc := make([]byte, int((jdescHeaderLen+8*uint64(len(addrs))+uint64(bs)-1)/uint64(bs))*bs)
	putUint64(desc[0:], fs.gen+1)
	putUint64(desc[8:], uint64(len(addrs)))
	for i, abs := range addrs {
		putUint64(desc[jdescHeaderLen+8*i:], abs)
	}
	putUint64(desc[16:], journalChecksum(desc, entries, len(addrs)))
	if err := storage.WriteFull(fs.dev, fs.sb.jdescStart, desc); err != nil {
		return fmt.Errorf("minifs: writing journal descriptor: %w", err)
	}
	if err := fs.dev.Sync(); err != nil {
		return fmt.Errorf("minifs: syncing journal descriptor: %w", err)
	}

	// In-place application, coalescing adjacent addresses into one write.
	// From here the descriptor is durable: if application fails midway,
	// the sealed journal is the only repair path and must be re-applied
	// before the region is reused (replayPending).
	pos := 0
	err := storage.ForEachRun(addrs, func(start uint64, count int) error {
		werr := storage.WriteFull(fs.dev, start, entries[pos*bs:(pos+count)*bs])
		pos += count
		return werr
	})
	if err != nil {
		fs.replayPending = true
		return fmt.Errorf("minifs: applying journal: %w", err)
	}
	if err := fs.dev.Sync(); err != nil {
		fs.replayPending = true
		return fmt.Errorf("minifs: syncing applied metadata: %w", err)
	}
	fs.gen++
	return nil
}

// journalChecksum computes the descriptor seal: CRC64 over the generation
// and count fields, the address table, and the entry contents. The checksum
// field itself (desc[16:24]) is excluded.
func journalChecksum(desc, entries []byte, count int) uint64 {
	c := crc.Update(0, desc[0:16])
	c = crc.Update(c, desc[jdescHeaderLen:jdescHeaderLen+8*count])
	return crc.Update(c, entries)
}

// replayJournal validates the journal descriptor against the journal
// contents and, when the seal holds, applies the entries in place — the
// mount-time recovery pass. An unsealed or torn journal is ignored: the
// in-place metadata is then exactly the last fully applied transaction.
func (fs *FS) replayJournal() error {
	bs := fs.sb.blockSize
	descRaw, err := storage.ReadFull(fs.dev, fs.sb.jdescStart, fs.sb.jdescBlocks)
	if err != nil {
		return fmt.Errorf("minifs: reading journal descriptor: %w", err)
	}
	gen := getUint64(descRaw[0:])
	count := getUint64(descRaw[8:])
	if count == 0 || count > fs.sb.jdataBlocks ||
		jdescHeaderLen+8*count > uint64(len(descRaw)) {
		return nil // no (or no plausible) sealed transaction
	}
	entries, err := storage.ReadFull(fs.dev, fs.sb.jdataStart, count)
	if err != nil {
		return fmt.Errorf("minifs: reading journal entries: %w", err)
	}
	if journalChecksum(descRaw, entries, int(count)) != getUint64(descRaw[16:]) {
		return nil // torn or stale journal: the in-place state stands
	}
	fs.gen = gen
	for i := uint64(0); i < count; i++ {
		abs := getUint64(descRaw[jdescHeaderLen+8*i:])
		// Only the bitmap and inode regions are ever journaled; an entry
		// addressing anything else — the superblock, the journal itself,
		// or file data — is corruption and must not be replayed.
		if abs < fs.sb.bitmapStart || abs >= fs.sb.dataStart {
			return fmt.Errorf("%w: journal entry targets block %d", ErrNotFormatted, abs)
		}
		if err := fs.dev.WriteBlock(abs, entries[i*uint64(bs):(i+1)*uint64(bs)]); err != nil {
			return fmt.Errorf("minifs: replaying journal: %w", err)
		}
	}
	if err := fs.dev.Sync(); err != nil {
		return fmt.Errorf("minifs: syncing journal replay: %w", err)
	}
	return nil
}

// writeSuper writes the superblock. It is written exactly once, at Format:
// every field is geometry, fixed for the life of the file system, so mounts
// never depend on a block that could be mid-rewrite at a power cut.
func (fs *FS) writeSuper() error {
	buf := make([]byte, fs.sb.blockSize)
	putUint64(buf[0:], magic)
	putUint64(buf[8:], uint64(fs.sb.blockSize))
	putUint64(buf[16:], fs.sb.totalBlocks)
	putUint64(buf[24:], uint64(fs.sb.inodeCount))
	putUint64(buf[32:], fs.sb.jdescStart)
	putUint64(buf[40:], fs.sb.jdescBlocks)
	putUint64(buf[48:], fs.sb.jdataStart)
	putUint64(buf[56:], fs.sb.jdataBlocks)
	putUint64(buf[64:], fs.sb.bitmapStart)
	putUint64(buf[72:], fs.sb.bitmapBlocks)
	putUint64(buf[80:], fs.sb.inodeStart)
	putUint64(buf[88:], fs.sb.inodeBlocks)
	putUint64(buf[96:], fs.sb.dataStart)
	return fs.dev.WriteBlock(0, buf)
}

// load mounts the file system from the device, replaying a sealed journal
// first.
func (fs *FS) load() error {
	bs := fs.dev.BlockSize()
	buf := make([]byte, bs)
	if err := fs.dev.ReadBlock(0, buf); err != nil {
		return fmt.Errorf("minifs: reading superblock: %w", err)
	}
	if getUint64(buf) != magic {
		return ErrNotFormatted
	}
	fs.sb = superblock{
		blockSize:    int(getUint64(buf[8:])),
		totalBlocks:  getUint64(buf[16:]),
		inodeCount:   uint32(getUint64(buf[24:])),
		jdescStart:   getUint64(buf[32:]),
		jdescBlocks:  getUint64(buf[40:]),
		jdataStart:   getUint64(buf[48:]),
		jdataBlocks:  getUint64(buf[56:]),
		bitmapStart:  getUint64(buf[64:]),
		bitmapBlocks: getUint64(buf[72:]),
		inodeStart:   getUint64(buf[80:]),
		inodeBlocks:  getUint64(buf[88:]),
		dataStart:    getUint64(buf[96:]),
	}
	if fs.sb.blockSize != bs {
		return fmt.Errorf("%w: block size %d != device %d", ErrNotFormatted, fs.sb.blockSize, bs)
	}
	if fs.sb.totalBlocks != fs.dev.NumBlocks() {
		return fmt.Errorf("%w: size mismatch", ErrNotFormatted)
	}
	if fs.sb.dataStart <= fs.sb.inodeStart || fs.sb.dataStart >= fs.sb.totalBlocks {
		return fmt.Errorf("%w: bad region layout", ErrNotFormatted)
	}

	if err := fs.replayJournal(); err != nil {
		return err
	}

	bitmapBytes, err := storage.ReadFull(fs.dev, fs.sb.bitmapStart, fs.sb.bitmapBlocks)
	if err != nil {
		return fmt.Errorf("minifs: reading bitmap: %w", err)
	}
	fs.bitmap = make([]bool, fs.sb.totalBlocks-fs.sb.dataStart)
	for i := range fs.bitmap {
		fs.bitmap[i] = bitmapBytes[i/8]&(1<<(i%8)) != 0
	}

	inodeBytes, err := storage.ReadFull(fs.dev, fs.sb.inodeStart, fs.sb.inodeBlocks)
	if err != nil {
		return fmt.Errorf("minifs: reading inode table: %w", err)
	}
	fs.inodes = make([]inode, fs.sb.inodeCount)
	for i := range fs.inodes {
		unmarshalInode(&fs.inodes[i], inodeBytes[i*inodeSize:])
	}
	fs.lastBitmap = bitmapBytes
	fs.lastInodes = inodeBytes
	fs.ptrCache = make(map[uint64][]uint64)
	fs.ptrDirty = make(map[uint64]bool)
	fs.freshPtr = make(map[uint64]bool)
	fs.pendingFree = make(map[uint64]bool)
	if fs.inodes[rootIno].mode != modeDir {
		return fmt.Errorf("%w: missing root directory", ErrNotFormatted)
	}

	dirBytes, err := fs.readInodeData(&fs.inodes[rootIno])
	if err != nil {
		return fmt.Errorf("minifs: reading root directory: %w", err)
	}
	if err := fs.unmarshalDir(dirBytes); err != nil {
		return err
	}
	return nil
}

func marshalInode(ind *inode, b []byte) {
	putUint64(b[0:], uint64(ind.mode))
	putUint64(b[8:], ind.size)
	for i := 0; i < numDirect; i++ {
		putUint64(b[16+8*i:], ind.direct[i])
	}
	putUint64(b[16+8*numDirect:], ind.indirect)
	putUint64(b[24+8*numDirect:], ind.dindirect)
}

func unmarshalInode(ind *inode, b []byte) {
	ind.mode = uint32(getUint64(b[0:]))
	ind.size = getUint64(b[8:])
	for i := 0; i < numDirect; i++ {
		ind.direct[i] = getUint64(b[16+8*i:])
	}
	ind.indirect = getUint64(b[16+8*numDirect:])
	ind.dindirect = getUint64(b[24+8*numDirect:])
}

// marshalDir serializes the root directory: count, then (ino, nameLen,
// name) entries in sorted-name order for determinism.
func (fs *FS) marshalDir() []byte {
	names := make([]string, 0, len(fs.dir))
	for name := range fs.dir {
		names = append(names, name)
	}
	sort.Strings(names)
	size := 8
	for _, name := range names {
		size += 8 + 2 + len(name)
	}
	out := make([]byte, size)
	putUint64(out, uint64(len(names)))
	off := 8
	for _, name := range names {
		putUint64(out[off:], uint64(fs.dir[name]))
		off += 8
		out[off] = byte(len(name))
		out[off+1] = byte(len(name) >> 8)
		off += 2
		copy(out[off:], name)
		off += len(name)
	}
	return out
}

func (fs *FS) unmarshalDir(b []byte) error {
	fs.dir = make(map[string]uint32)
	if len(b) < 8 {
		return nil // empty directory
	}
	count := getUint64(b)
	off := 8
	for i := uint64(0); i < count; i++ {
		if off+10 > len(b) {
			return fmt.Errorf("%w: truncated directory", ErrNotFormatted)
		}
		ino := uint32(getUint64(b[off:]))
		off += 8
		nameLen := int(b[off]) | int(b[off+1])<<8
		off += 2
		if off+nameLen > len(b) {
			return fmt.Errorf("%w: truncated directory entry", ErrNotFormatted)
		}
		fs.dir[string(b[off:off+nameLen])] = ino
		off += nameLen
	}
	return nil
}

// writeInodeData replaces ind's content with data (used for the root
// directory). The old blocks are freed — but stay reserved via pendingFree
// until the next commit lands — and fresh blocks are allocated and written
// directly: shadow paging, so the committed inode keeps pointing at intact
// old content until the journal flips. Caller holds fs.mu.
func (fs *FS) writeInodeData(ind *inode, data []byte) error {
	if err := fs.freeInodeBlocks(ind); err != nil {
		return err
	}
	ind.direct = [numDirect]uint64{}
	ind.indirect, ind.dindirect, ind.size = 0, 0, 0

	bs := fs.sb.blockSize
	buf := make([]byte, bs)
	for off := 0; off < len(data); off += bs {
		fileBlock := uint64(off / bs)
		abs, _, err := fs.blockFor(ind, fileBlock, true)
		if err != nil {
			return err
		}
		n := copy(buf, data[off:])
		for i := n; i < bs; i++ {
			buf[i] = 0
		}
		if err := fs.dev.WriteBlock(abs, buf); err != nil {
			return err
		}
	}
	ind.size = uint64(len(data))
	return nil
}

// readInodeData returns ind's full content. Caller holds fs.mu.
func (fs *FS) readInodeData(ind *inode) ([]byte, error) {
	out := make([]byte, ind.size)
	bs := fs.sb.blockSize
	buf := make([]byte, bs)
	for off := 0; off < len(out); off += bs {
		fileBlock := uint64(off / bs)
		abs, _, err := fs.blockFor(ind, fileBlock, false)
		if err != nil {
			return nil, err
		}
		if abs == 0 {
			continue // hole reads as zeros
		}
		if err := fs.dev.ReadBlock(abs, buf); err != nil {
			return nil, err
		}
		copy(out[off:], buf)
	}
	return out, nil
}
