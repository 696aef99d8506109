package minifs

import (
	"fmt"
	"io"

	"mobiceal/internal/storage"
)

// File is a handle to a minifs file. Handles remain valid until the file is
// removed. File methods are safe for concurrent use (they serialize on the
// file system lock).
type File struct {
	fs  *FS
	ino uint32
}

// Size returns the file size in bytes.
func (f *File) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(f.fs.inodes[f.ino].size)
}

func (f *File) inodeLocked() (*inode, error) {
	ind := &f.fs.inodes[f.ino]
	if ind.mode != modeFile {
		return nil, ErrClosedFile
	}
	return ind, nil
}

// blockResolver memoizes sequential file-block → device-block resolution
// for one ReadAt/WriteAt call, so run coalescing can look ahead without
// re-walking the indirect chain and failed lookups are retried exactly
// where the I/O loop stops. It remembers which blocks it freshly
// allocated so a write that fails before reaching them can unwind the
// mappings instead of leaving garbage-reading former holes.
type blockResolver struct {
	fs    *FS
	ind   *inode
	alloc bool
	first uint64
	abs   []uint64
	fresh []bool
}

// resolve returns the device block for file block fb, resolving (and, when
// alloc is set, allocating) every block from the last resolved one up to fb.
func (r *blockResolver) resolve(fb uint64) (uint64, error) {
	for uint64(len(r.abs)) <= fb-r.first {
		a, fresh, err := r.fs.blockFor(r.ind, r.first+uint64(len(r.abs)), r.alloc)
		if err != nil {
			return 0, fmt.Errorf("minifs: mapping block %d: %w", r.first+uint64(len(r.abs)), err)
		}
		r.abs = append(r.abs, a)
		r.fresh = append(r.fresh, fresh)
	}
	return r.abs[fb-r.first], nil
}

// isFresh reports whether file block fb was freshly allocated by this
// resolver (so its device content is stale garbage, not file data).
func (r *blockResolver) isFresh(fb uint64) bool {
	return r.fresh[fb-r.first]
}

// written marks file block fb's data as durably written, so it is no
// longer a candidate for unwinding.
func (r *blockResolver) written(fb uint64, n int) {
	for i := 0; i < n; i++ {
		r.fresh[fb-r.first+uint64(i)] = false
	}
}

// unwind releases every freshly allocated block whose data was never
// written, restoring those file blocks to holes. Caller holds fs.mu.
func (r *blockResolver) unwind() {
	for i, fresh := range r.fresh {
		if !fresh {
			continue
		}
		r.fs.freeBlock(r.abs[i])
		_ = r.fs.clearMapping(r.ind, r.first+uint64(i))
		r.abs[i] = 0
		r.fresh[i] = false
	}
}

// contiguousRun returns how many full blocks starting at file block fb land
// on consecutive device blocks, capped at maxBlocks. Blocks that fail to
// resolve end the run; the failure resurfaces when the I/O loop reaches
// them.
func (r *blockResolver) contiguousRun(fb, a uint64, maxBlocks int) int {
	run := 1
	for run < maxBlocks {
		next, err := r.resolve(fb + uint64(run))
		if err != nil || next != a+uint64(run) {
			break
		}
		run++
	}
	return run
}

// WriteAt writes p at byte offset off, growing the file as needed. Holes
// created by sparse writes read back as zeros.
//
// Full-block spans whose device blocks are physically consecutive are
// written with one vectored device call, so an aligned 64 KB write on a
// freshly provisioned extent reaches the device as a single request instead
// of sixteen. Mapping is resolved as the write progresses: on allocation
// failure mid-range, everything mapped so far has been written and the
// partial byte count is returned.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("minifs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ind, err := f.inodeLocked()
	if err != nil {
		return 0, err
	}
	bs := uint64(f.fs.sb.blockSize)
	res := &blockResolver{fs: f.fs, ind: ind, alloc: true, first: uint64(off) / bs}
	written := 0
	var buf []byte // partial-block scratch, allocated only when needed
	for written < len(p) {
		pos := uint64(off) + uint64(written)
		fileBlock := pos / bs
		inBlock := pos % bs
		n := int(bs - inBlock)
		if n > len(p)-written {
			n = len(p) - written
		}
		a, err := res.resolve(fileBlock)
		if err != nil {
			res.unwind()
			return written, err
		}
		if uint64(n) == bs {
			run := res.contiguousRun(fileBlock, a, (len(p)-written)/int(bs))
			n = run * int(bs)
			if err := storage.WriteBlocks(f.fs.dev, a, p[written:written+n]); err != nil {
				res.unwind()
				return written, err
			}
			res.written(fileBlock, run)
		} else {
			if buf == nil {
				buf = make([]byte, bs)
			}
			if res.isFresh(fileBlock) {
				// A freshly allocated block holds stale device content,
				// not file data: the bytes outside the write are a hole
				// and must become zeros, never a previous owner's data.
				for i := range buf {
					buf[i] = 0
				}
			} else if err := f.fs.dev.ReadBlock(a, buf); err != nil {
				res.unwind()
				return written, err
			}
			copy(buf[inBlock:], p[written:written+n])
			if err := f.fs.dev.WriteBlock(a, buf); err != nil {
				res.unwind()
				return written, err
			}
			res.written(fileBlock, 1)
		}
		written += n
		if pos+uint64(n) > ind.size {
			ind.size = pos + uint64(n)
		}
	}
	return written, nil
}

// ReadAt reads into p from byte offset off. It returns io.EOF when the read
// reaches the end of the file, matching the io.ReaderAt contract.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("minifs: negative offset %d", off)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ind, err := f.inodeLocked()
	if err != nil {
		return 0, err
	}
	if uint64(off) >= ind.size {
		return 0, io.EOF
	}
	max := ind.size - uint64(off)
	want := len(p)
	if uint64(want) > max {
		want = int(max)
	}
	bs := uint64(f.fs.sb.blockSize)
	res := &blockResolver{fs: f.fs, ind: ind, alloc: false, first: uint64(off) / bs}
	read := 0
	var buf []byte // partial-block scratch, allocated only when needed
	for read < want {
		pos := uint64(off) + uint64(read)
		fileBlock := pos / bs
		inBlock := pos % bs
		n := int(bs - inBlock)
		if n > want-read {
			n = want - read
		}
		a, err := res.resolve(fileBlock)
		if err != nil {
			return read, err
		}
		switch {
		case a == 0:
			// Hole: zeros.
			for i := 0; i < n; i++ {
				p[read+i] = 0
			}
		case uint64(n) == bs:
			run := res.contiguousRun(fileBlock, a, (want-read)/int(bs))
			n = run * int(bs)
			if err := storage.ReadBlocks(f.fs.dev, a, p[read:read+n]); err != nil {
				return read, err
			}
		default:
			if buf == nil {
				buf = make([]byte, bs)
			}
			if err := f.fs.dev.ReadBlock(a, buf); err != nil {
				return read, err
			}
			copy(p[read:read+n], buf[inBlock:inBlock+uint64(n)])
		}
		read += n
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

// clearMapping zeroes the pointer for file block fb. Pointer blocks that
// become empty are not collapsed; they are freed when the file is removed.
func (fs *FS) clearMapping(ind *inode, fb uint64) error {
	p := fs.ptrsPerBlock()
	switch {
	case fb < numDirect:
		ind.direct[fb] = 0
	case fb < numDirect+p:
		if ind.indirect == 0 {
			return nil
		}
		ptrs, err := fs.readPtrBlock(ind.indirect)
		if err != nil {
			return err
		}
		ptrs[fb-numDirect] = 0
		return fs.writePtrBlock(ind.indirect, ptrs)
	default:
		rel := fb - numDirect - p
		if ind.dindirect == 0 {
			return nil
		}
		outer, err := fs.readPtrBlock(ind.dindirect)
		if err != nil {
			return err
		}
		if outer[rel/p] == 0 {
			return nil
		}
		inner, err := fs.readPtrBlock(outer[rel/p])
		if err != nil {
			return err
		}
		inner[rel%p] = 0
		return fs.writePtrBlock(outer[rel/p], inner)
	}
	return nil
}
