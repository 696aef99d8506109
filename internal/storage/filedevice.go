package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"mobiceal/internal/obs"
)

// ErrDirectUnsupported reports a direct-I/O open on a platform or file
// system that cannot serve it (non-Linux builds, tmpfs, and any file
// system rejecting O_DIRECT with EINVAL).
var ErrDirectUnsupported = errors.New("storage: direct I/O not supported here")

// FileOptions configures CreateFileDeviceWith / OpenFileDeviceWith.
type FileOptions struct {
	// Direct opens the image with O_DIRECT: transfers bypass the page
	// cache and hit the device at the request's own queue depth — the
	// configuration where the scheduler's in-flight window buys real
	// parallelism. Direct mode requires the block size to be a multiple
	// of DirectAlign (so every block offset and length is page-aligned)
	// and prefers DirectAlign-aligned buffers (see AlignedBuf).
	Direct bool
	// StrictAlign makes direct mode reject misaligned buffers with
	// ErrBadBuffer instead of bouncing them through a pooled aligned
	// copy. Callers that own their buffers (and allocated them via
	// AlignedBuf) set it to pin the zero-copy contract; the default
	// bounce keeps arbitrary callers working at the price of a copy.
	StrictAlign bool
}

// FileSyscalls is a snapshot of a FileDevice's syscall accounting: how
// many vectored transfers went down, how many segments they carried, and
// how often the retry loop had to intervene. The counters expose the
// merge economics on real storage — one preadv/pwritev per coalesced run
// means PreadvCalls tracks runs, ReadSegs tracks the requests they
// carried. Aggregate per device, never per volume, so the surface stays
// deniability-safe like the rest of the telemetry.
type FileSyscalls struct {
	// PreadvCalls / PwritevCalls count vectored transfer syscalls issued
	// (on non-Linux builds: the ReadAt/WriteAt loop standing in for one).
	PreadvCalls  uint64 `json:"preadv_calls"`
	PwritevCalls uint64 `json:"pwritev_calls"`
	// ReadSegs / WriteSegs count the segments those calls carried;
	// segs/call is the scatter-gather win over one syscall per segment.
	ReadSegs  uint64 `json:"read_segs"`
	WriteSegs uint64 `json:"write_segs"`
	// EintrRetries counts transfers re-issued after EINTR; ShortTransfers
	// counts continuations after a partial count — the cases os.File
	// loops over internally and raw preadv/pwritev surface.
	EintrRetries   uint64 `json:"eintr_retries"`
	ShortTransfers uint64 `json:"short_transfers"`
	// BounceCopies counts direct-mode transfers that went through the
	// pooled aligned bounce buffer because a caller buffer was not
	// DirectAlign-aligned.
	BounceCopies uint64 `json:"bounce_copies"`
	// BatchCalls counts batches the device served natively — each went
	// down as one ring submission, counted once in PreadvCalls /
	// PwritevCalls like any other syscall that carried transfers — and
	// BatchReqs the requests they held. reqs/call is what batching below
	// the thin pool saves over one syscall per extent.
	BatchCalls uint64 `json:"batch_calls"`
	BatchReqs  uint64 `json:"batch_reqs"`
	// Ring reports whether the device has a live submission ring. False
	// on a device that has served no batch yet, and on one that fell back
	// to serial transfers because the kernel refused a ring.
	Ring bool `json:"ring"`
	// Direct reports whether the device runs in O_DIRECT mode.
	Direct bool `json:"direct"`
}

// SyscallReporter is implemented by devices that account their syscalls
// (today: FileDevice). The telemetry layer surfaces the snapshot when the
// system's base device reports one.
type SyscallReporter interface {
	Syscalls() FileSyscalls
}

// fileSyscalls is the live, atomically-updated form of FileSyscalls.
type fileSyscalls struct {
	preadvCalls    obs.Counter
	pwritevCalls   obs.Counter
	readSegs       obs.Counter
	writeSegs      obs.Counter
	eintrRetries   obs.Counter
	shortTransfers obs.Counter
	bounceCopies   obs.Counter
	batchCalls     obs.Counter
	batchReqs      obs.Counter
}

// vectorIO issues ONE vectored transfer attempt at a byte offset and
// returns the bytes moved. It is the single seam between the shared
// retry/accounting logic and the platform: Linux builds install raw
// preadv/pwritev, other platforms an os.File ReadAt/WriteAt loop, and
// tests a fault-injecting shim. Implementations return exactly what the
// kernel (or shim) reported — no retry, no loop hiding partial counts.
type vectorIO interface {
	// readv reads into segs, in order, from byte offset off.
	readv(f *os.File, fd int, segs [][]byte, off int64) (int, error)
	// writev writes segs, in order, at byte offset off.
	writev(f *os.File, fd int, segs [][]byte, off int64) (int, error)
}

// FileDevice is a block device backed by a regular file, used by the CLI
// tools so disk images survive process restarts and can be handed to the
// adversary CLI the way a seized phone image would be. It is the repo's
// real-storage backend: transfers go down as vectored preadv/pwritev
// syscalls (one per coalesced run), optionally O_DIRECT, and concurrent
// requests proceed in parallel — the device serializes nothing but Close.
type FileDevice struct {
	// mu is held shared by every I/O path and exclusively by Close:
	// pread/pwrite on one fd are independently thread-safe, so the only
	// thing the device must serialize is the fd going away.
	mu        sync.RWMutex
	f         *os.File
	fd        int
	blockSize int
	numBlocks uint64
	closed    bool

	direct bool
	strict bool
	vio    vectorIO
	rings  ringPool
	bounce AlignedPool
	sysc   fileSyscalls
}

var (
	_ RangeDevice     = (*FileDevice)(nil)
	_ VecDevice       = (*FileDevice)(nil)
	_ Doer            = (*FileDevice)(nil)
	_ SyscallReporter = (*FileDevice)(nil)
)

// CreateFileDevice creates (or truncates) path as a device image of
// numBlocks blocks of blockSize bytes.
func CreateFileDevice(path string, blockSize int, numBlocks uint64) (*FileDevice, error) {
	return CreateFileDeviceWith(path, blockSize, numBlocks, FileOptions{})
}

// CreateFileDeviceWith is CreateFileDevice with explicit options.
func CreateFileDeviceWith(path string, blockSize int, numBlocks uint64, opts FileOptions) (*FileDevice, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("storage: non-positive block size %d", blockSize)
	}
	f, err := openImageFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, opts)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(blockSize) * int64(numBlocks)); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: sizing image %s: %w", path, err)
	}
	return newFileDevice(f, blockSize, numBlocks, opts)
}

// OpenFileDevice opens an existing device image with the given block size,
// deriving the block count from the file size.
func OpenFileDevice(path string, blockSize int) (*FileDevice, error) {
	return OpenFileDeviceWith(path, blockSize, FileOptions{})
}

// OpenFileDeviceWith is OpenFileDevice with explicit options.
func OpenFileDeviceWith(path string, blockSize int, opts FileOptions) (*FileDevice, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("storage: non-positive block size %d", blockSize)
	}
	f, err := openImageFile(path, os.O_RDWR, opts)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: stat image %s: %w", path, err)
	}
	if info.Size()%int64(blockSize) != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("storage: image %s size %d not a multiple of block size %d",
			path, info.Size(), blockSize)
	}
	return newFileDevice(f, blockSize, uint64(info.Size()/int64(blockSize)), opts)
}

// openImageFile opens path with the platform's flags for opts, mapping a
// refused O_DIRECT to ErrDirectUnsupported.
func openImageFile(path string, flag int, opts FileOptions) (*os.File, error) {
	if opts.Direct {
		dflag, err := directOpenFlag()
		if err != nil {
			return nil, fmt.Errorf("storage: opening image %s: %w", path, err)
		}
		flag |= dflag
	}
	f, err := os.OpenFile(path, flag, 0o600)
	if err != nil {
		if opts.Direct && isDirectRefused(err) {
			return nil, fmt.Errorf("storage: opening image %s: %w: %w",
				path, ErrDirectUnsupported, err)
		}
		return nil, fmt.Errorf("storage: opening image %s: %w", path, err)
	}
	return f, nil
}

func newFileDevice(f *os.File, blockSize int, numBlocks uint64, opts FileOptions) (*FileDevice, error) {
	if opts.Direct && blockSize%DirectAlign != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("storage: %w: block size %d not a multiple of %d",
			ErrDirectUnsupported, blockSize, DirectAlign)
	}
	return &FileDevice{
		f:         f,
		fd:        int(f.Fd()),
		blockSize: blockSize,
		numBlocks: numBlocks,
		direct:    opts.Direct,
		strict:    opts.StrictAlign,
		vio:       platformVIO(),
		rings:     ringPool{open: platformBatchIO},
	}, nil
}

// BlockSize implements Device.
func (d *FileDevice) BlockSize() int { return d.blockSize }

// NumBlocks implements Device.
func (d *FileDevice) NumBlocks() uint64 { return d.numBlocks }

// Syscalls implements SyscallReporter.
func (d *FileDevice) Syscalls() FileSyscalls {
	return FileSyscalls{
		PreadvCalls:    d.sysc.preadvCalls.Load(),
		PwritevCalls:   d.sysc.pwritevCalls.Load(),
		ReadSegs:       d.sysc.readSegs.Load(),
		WriteSegs:      d.sysc.writeSegs.Load(),
		EintrRetries:   d.sysc.eintrRetries.Load(),
		ShortTransfers: d.sysc.shortTransfers.Load(),
		BounceCopies:   d.sysc.bounceCopies.Load(),
		BatchCalls:     d.sysc.batchCalls.Load(),
		BatchReqs:      d.sysc.batchReqs.Load(),
		Ring:           d.rings.live.Load(),
		Direct:         d.direct,
	}
}

// ReadBlock implements Device.
func (d *FileDevice) ReadBlock(idx uint64, dst []byte) error {
	return DoBlock(d, OpRead, idx, dst)
}

// WriteBlock implements Device.
func (d *FileDevice) WriteBlock(idx uint64, src []byte) error {
	return DoBlock(d, OpWrite, idx, src)
}

// ReadBlocks implements RangeDevice: the whole range is one pread(v).
func (d *FileDevice) ReadBlocks(start uint64, dst []byte) error {
	return ReadBlocks(d, start, dst)
}

// WriteBlocks implements RangeDevice: the whole range is one pwrite(v).
func (d *FileDevice) WriteBlocks(start uint64, src []byte) error {
	return WriteBlocks(d, start, src)
}

// ReadBlocksVec implements VecDevice: the whole vec is ONE preadv syscall
// per attempt — the scatter segments go down together instead of one
// pread per segment.
func (d *FileDevice) ReadBlocksVec(start uint64, v BlockVec) error {
	return ReadBlocksVec(d, start, v)
}

// WriteBlocksVec implements VecDevice: one pwritev per attempt, gathering
// the segments in order.
func (d *FileDevice) WriteBlocksVec(start uint64, v BlockVec) error {
	return WriteBlocksVec(d, start, v)
}

// Sync implements Device.
func (d *FileDevice) Sync() error { return Sync(d) }

// Do implements Doer. More than one request on a direct-mode image goes
// down as one ring submission (see runBatch) when every request is fit for
// it; every other call is served one request at a time, each transfer one
// vectored syscall — there is nothing to overlap in a single request, and
// the serial path is where every refusal and bounce copy is produced.
func (d *FileDevice) Do(reqs []Req) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(reqs) > 1 && !d.closed && d.batchable(reqs) {
		if slot := d.rings.get(d.fd); slot != nil {
			err := d.runBatch(slot, reqs)
			d.rings.put(slot)
			return err
		}
	}
	return Each(reqs, d.doLocked)
}

// doLocked serves one request through the syscall path. Caller holds d.mu
// shared.
func (d *FileDevice) doLocked(one []Req) error {
	r := &one[0]
	if d.closed {
		return ErrClosed
	}
	switch r.Op {
	case OpDiscard:
		return nil // the image keeps its extent; nothing to reclaim
	case OpSync:
		if err := d.f.Sync(); err != nil {
			return fmt.Errorf("storage: syncing image: %w", err)
		}
		return nil
	}
	if err := checkVecIO(r.Start, r.Vec, d.blockSize, d.numBlocks); err != nil {
		return err
	}
	if r.Vec.Len() == 0 {
		return nil
	}
	if err := d.transfer(r.Op == OpWrite, r.Start, vecSegs(r.Vec)); err != nil {
		return transferFailed(r, err)
	}
	return nil
}

// transferFailed frames a transfer error with the request it failed.
func transferFailed(r *Req, err error) error {
	return fmt.Errorf("storage: %s of %d blocks at %d: %w", obs.FlightOp(r.Op), r.Vec.Len(), r.Start, err)
}

// vecSegs collects the vec's segments as a plain slice for the transfer
// loop (the loop reslices as partial counts come back, so it needs its
// own spine).
func vecSegs(v BlockVec) [][]byte {
	segs := make([][]byte, 0, v.Segments())
	_ = v.Range(func(_ int, s []byte) error {
		segs = append(segs, s)
		return nil
	})
	return segs
}

// transfer moves the segments to/from the file starting at block start,
// as vectored syscalls with an EINTR/short-transfer retry loop. Caller
// holds d.mu (shared) and has validated geometry. On a hard failure after
// a transferred prefix the error is a PartialError whose Done counts the
// whole blocks moved — rebased over the entire transfer, not the failing
// attempt.
func (d *FileDevice) transfer(write bool, start uint64, segs [][]byte) error {
	if d.direct {
		if aligned, err := d.checkAlign(segs); err != nil {
			return err
		} else if !aligned {
			return d.bounceTransfer(write, start, segs)
		}
	}
	return d.rawTransfer(write, start, segs)
}

// checkAlign validates the segments' memory alignment for direct mode.
// It reports false (bounce needed) for misaligned segments, or an
// ErrBadBuffer error in strict mode. Segment lengths are whole blocks by
// construction and the block size is a DirectAlign multiple (checked at
// open), so only the base pointers need checking.
func (d *FileDevice) checkAlign(segs [][]byte) (bool, error) {
	for _, s := range segs {
		if !IsAligned(s, DirectAlign) {
			if d.strict {
				return false, fmt.Errorf("%w: direct I/O needs %d-byte aligned buffers (see storage.AlignedBuf)",
					ErrBadBuffer, DirectAlign)
			}
			return false, nil
		}
	}
	return true, nil
}

// bounceTransfer runs a direct-mode transfer whose caller buffers are not
// aligned: the payload moves through one pooled aligned buffer. Reads
// scatter whatever arrived back into the caller's segments even on a
// partial failure, so a PartialError's Done prefix is real data.
func (d *FileDevice) bounceTransfer(write bool, start uint64, segs [][]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	buf := d.bounce.Get(total)
	defer d.bounce.Put(buf)
	d.sysc.bounceCopies.Inc()
	if write {
		off := 0
		for _, s := range segs {
			off += copy(buf[off:], s)
		}
		return d.rawTransfer(true, start, [][]byte{buf})
	}
	err := d.rawTransfer(false, start, [][]byte{buf})
	done := total
	if err != nil {
		var pe *PartialError
		if !errors.As(err, &pe) {
			return err
		}
		done = pe.Done * d.blockSize
	}
	off := 0
	for _, s := range segs {
		if off >= done {
			break
		}
		off += copy(s, buf[off:min(off+len(s), done)])
	}
	return err
}

// rawTransfer is the retry loop around the platform's single-attempt
// vectored I/O: EINTR re-issues in place, a short count continues from
// where the kernel stopped, zero progress without an error is an
// unexpected EOF, and any other error surfaces with the completed prefix
// rebased into a PartialError.
func (d *FileDevice) rawTransfer(write bool, start uint64, segs [][]byte) error {
	return d.resumeTransfer(write, int64(start)*int64(d.blockSize), segs, 0)
}

// resumeTransfer is rawTransfer's loop entered with the first done bytes
// of the transfer already moved: off is the byte offset the whole transfer
// starts at and segs its whole segment list. A batched extent whose ring
// completion came back short, or interrupted, finishes here.
func (d *FileDevice) resumeTransfer(write bool, off int64, segs [][]byte, done int) error {
	calls, segCount := &d.sysc.preadvCalls, &d.sysc.readSegs
	if write {
		calls, segCount = &d.sysc.pwritevCalls, &d.sysc.writeSegs
	}
	off += int64(done)
	segs = advanceSegs(segs, done)
	for len(segs) > 0 {
		calls.Inc()
		segCount.Add(uint64(len(segs)))
		var n int
		var err error
		if write {
			n, err = d.vio.writev(d.f, d.fd, segs, off)
		} else {
			n, err = d.vio.readv(d.f, d.fd, segs, off)
		}
		if n > 0 {
			done += n
			off += int64(n)
			segs = advanceSegs(segs, n)
		}
		switch {
		case err == nil && len(segs) == 0:
			return nil
		case err == nil && n == 0:
			// No progress and no error: the file ended short of the
			// transfer (it cannot — the image is sized at create — so
			// something truncated it underneath us).
			return transferError(errUnexpectedEOF, done, d.blockSize)
		case err == nil:
			// Short transfer: the kernel moved a prefix; go again from
			// where it stopped, budget intact (progress was made).
			d.sysc.shortTransfers.Inc()
		case isEINTR(err):
			// Interrupted by a signal before (or after) moving bytes;
			// re-issue at the current position.
			d.sysc.eintrRetries.Inc()
		default:
			return transferError(err, done, d.blockSize)
		}
	}
	return nil
}

// errUnexpectedEOF mirrors io.ErrUnexpectedEOF with the storage framing.
var errUnexpectedEOF = errors.New("transfer ended before the image's sized extent")

// transferError rebases a hard transfer failure onto block granularity: a
// failure after done bytes reports the whole blocks that completed as a
// PartialError (partially transferred blocks don't count — block devices
// deal in blocks), or the bare error when nothing completed.
func transferError(err error, doneBytes, blockSize int) error {
	if doneBlocks := doneBytes / blockSize; doneBlocks > 0 {
		return &PartialError{Done: doneBlocks, Err: err}
	}
	return err
}

// advanceSegs returns segs with the first n bytes consumed, reslicing the
// boundary segment. It reuses the caller's spine (the transfer loop owns
// it).
func advanceSegs(segs [][]byte, n int) [][]byte {
	for len(segs) > 0 && n >= len(segs[0]) {
		n -= len(segs[0])
		segs = segs[1:]
	}
	if len(segs) > 0 && n > 0 {
		segs[0] = segs[0][n:]
	}
	return segs
}

// Close implements Device.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	// The exclusive lock means no batch is in flight: every ring is back
	// on the free list.
	d.rings.closeAll()
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("storage: closing image: %w", err)
	}
	return nil
}
