//go:build linux

package storage

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// A minimal io_uring over raw syscalls: enough to put a batch of
// readv/writev transfers in flight with one io_uring_enter and wait for
// all of them. The stdlib syscall package is frozen short of the io_uring
// numbers, so they are spelled out here; the structures are the kernel's
// uapi (linux/io_uring.h), fixed-width on every architecture.
//
// One ring serves one batch at a time (FileDevice checks rings out of a
// free list), so nothing here is concurrent: the only other party is the
// kernel, and the head/tail words it shares are accessed atomically.

// uringEntries is the submission-queue size of every ring: eight 32 KiB
// requests' worth of single-block extents. Larger batches go down a
// ring's worth at a time.
const uringEntries = 64

const (
	// The io_uring syscalls were added after the kernel unified syscall
	// numbering, so they are 425/426 everywhere except the MIPS ABIs,
	// which add their historical base (see uringSysBase).
	sysIoUringSetup = 425
	sysIoUringEnter = 426

	uringOffSQRing = 0
	uringOffCQRing = 0x8000000
	uringOffSQEs   = 0x10000000

	uringFeatSingleMmap = 1 << 0
	uringEnterGetEvents = 1 << 0

	uringOpReadv  = 1
	uringOpWritev = 2
)

// uringSysBase is the per-ABI syscall number base.
func uringSysBase() uintptr {
	switch runtime.GOARCH {
	case "mips", "mipsle":
		return 4000
	case "mips64", "mips64le":
		return 5000
	}
	return 0
}

// uringParams is struct io_uring_params.
type uringParams struct {
	sqEntries    uint32
	cqEntries    uint32
	flags        uint32
	sqThreadCPU  uint32
	sqThreadIdle uint32
	features     uint32
	wqFd         uint32
	resv         [3]uint32
	sqOff        uringSQOffsets
	cqOff        uringCQOffsets
}

// uringSQOffsets is struct io_sqring_offsets.
type uringSQOffsets struct {
	head        uint32
	tail        uint32
	ringMask    uint32
	ringEntries uint32
	flags       uint32
	dropped     uint32
	array       uint32
	resv1       uint32
	userAddr    uint64
}

// uringCQOffsets is struct io_cqring_offsets.
type uringCQOffsets struct {
	head        uint32
	tail        uint32
	ringMask    uint32
	ringEntries uint32
	overflow    uint32
	cqes        uint32
	flags       uint32
	resv1       uint32
	userAddr    uint64
}

// uringSQE is struct io_uring_sqe, 64 bytes.
type uringSQE struct {
	opcode      uint8
	flags       uint8
	ioprio      uint16
	fd          int32
	off         uint64
	addr        uint64
	len         uint32
	rwFlags     uint32
	userData    uint64
	bufIndex    uint16
	personality uint16
	spliceFdIn  int32
	pad         [2]uint64
}

// uringCQE is struct io_uring_cqe, 16 bytes.
type uringCQE struct {
	userData uint64
	res      int32
	flags    uint32
}

// uring is one set-up ring over one image descriptor.
type uring struct {
	fd   int   // the ring's own descriptor
	file int32 // the image descriptor every SQE names

	sqMem, cqMem, sqeMem []byte // the three mappings (cqMem may alias sqMem)

	sqHead, sqTail *uint32
	sqMask         uint32
	sqArray        []uint32
	sqes           []uringSQE
	cqHead, cqTail *uint32
	cqMask         uint32
	cqes           []uringCQE

	// iov is the ring-owned slab the iovec arrays of a submission live
	// in: heap memory that outlives the submission, never a stack frame.
	iov []syscall.Iovec

	// enter is io_uring_enter; tests substitute it to interrupt a wait.
	enter func(fd int, toSubmit, minComplete, flags uint32) (int, syscall.Errno)
}

// platformBatchIO sets up an io_uring for batches on the image fd.
func platformBatchIO(fd int) (batchIO, error) {
	r, err := openURing(fd)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func uringEnter(fd int, toSubmit, minComplete, flags uint32) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(uringSysBase()+sysIoUringEnter, uintptr(fd),
		uintptr(toSubmit), uintptr(minComplete), uintptr(flags), 0, 0)
	return int(n), errno
}

// openURing sets up a ring and maps its queues.
func openURing(file int) (*uring, error) {
	var p uringParams
	fd, _, errno := syscall.Syscall(uringSysBase()+sysIoUringSetup,
		uringEntries, uintptr(unsafe.Pointer(&p)), 0)
	if errno != 0 {
		return nil, fmt.Errorf("storage: io_uring_setup: %w", errno)
	}
	r := &uring{fd: int(fd), file: int32(file), enter: uringEnter}
	sqLen := int(p.sqOff.array) + int(p.sqEntries)*4
	cqLen := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(uringCQE{}))
	if p.features&uringFeatSingleMmap != 0 {
		sqLen = max(sqLen, cqLen)
		cqLen = sqLen
	}
	var err error
	if r.sqMem, err = r.mmap(uringOffSQRing, sqLen); err != nil {
		r.close()
		return nil, err
	}
	r.cqMem = r.sqMem
	if p.features&uringFeatSingleMmap == 0 {
		if r.cqMem, err = r.mmap(uringOffCQRing, cqLen); err != nil {
			r.close()
			return nil, err
		}
	}
	if r.sqeMem, err = r.mmap(uringOffSQEs, int(p.sqEntries)*int(unsafe.Sizeof(uringSQE{}))); err != nil {
		r.close()
		return nil, err
	}
	word := func(mem []byte, off uint32) *uint32 { return (*uint32)(unsafe.Pointer(&mem[off])) }
	r.sqHead, r.sqTail = word(r.sqMem, p.sqOff.head), word(r.sqMem, p.sqOff.tail)
	r.sqMask = *word(r.sqMem, p.sqOff.ringMask)
	r.sqArray = unsafe.Slice(word(r.sqMem, p.sqOff.array), p.sqEntries)
	r.sqes = unsafe.Slice((*uringSQE)(unsafe.Pointer(&r.sqeMem[0])), p.sqEntries)
	r.cqHead, r.cqTail = word(r.cqMem, p.cqOff.head), word(r.cqMem, p.cqOff.tail)
	r.cqMask = *word(r.cqMem, p.cqOff.ringMask)
	r.cqes = unsafe.Slice((*uringCQE)(unsafe.Pointer(&r.cqMem[p.cqOff.cqes])), p.cqEntries)
	r.iov = make([]syscall.Iovec, 0, 2*uringEntries)
	return r, nil
}

func (r *uring) mmap(off int64, n int) ([]byte, error) {
	mem, err := syscall.Mmap(r.fd, off, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("storage: mapping io_uring queues: %w", err)
	}
	return mem, nil
}

// entries implements batchIO.
func (r *uring) entries() int { return len(r.sqes) }

// close implements batchIO: unmap the queues and close the ring. No
// submission is in flight — submit never returns before its last
// completion.
func (r *uring) close() {
	if r.sqeMem != nil {
		_ = syscall.Munmap(r.sqeMem)
	}
	if r.cqMem != nil && &r.cqMem[0] != &r.sqMem[0] {
		_ = syscall.Munmap(r.cqMem)
	}
	if r.sqMem != nil {
		_ = syscall.Munmap(r.sqMem)
	}
	_ = syscall.Close(r.fd)
	r.sqMem, r.cqMem, r.sqeMem = nil, nil, nil
}

// submit implements batchIO: one SQE per op, one io_uring_enter that
// submits them all and waits for as many completions.
//
// The invariant that matters is at the bottom: submit returns only when
// every SQE the kernel consumed has produced its CQE. Until then the
// kernel may read the iovec slab and write the callers' buffers; after it,
// neither. So an interrupted wait re-enters, and a failing wait re-enters
// too — there is no error on which it would be safe to walk away from
// transfers in flight.
func (r *uring) submit(write bool, ops []batchOp) (syscalls int) {
	opcode := uint8(uringOpReadv)
	if write {
		opcode = uringOpWritev
	}
	// Size the slab before taking addresses into it: growing it halfway
	// would move the arrays earlier SQEs already point at.
	need := 0
	for i := range ops {
		need += min(ops[i].vec.Segments(), iovMax)
	}
	if cap(r.iov) < need {
		r.iov = make([]syscall.Iovec, 0, need)
	}
	iov := r.iov[:0]
	tail := *r.sqTail // only this side writes the SQ tail
	for i := range ops {
		v := ops[i].vec
		// A vec wider than IOV_MAX goes down capped; its short count
		// resumes through the transfer loop like any other.
		first, nseg := len(iov), min(v.Segments(), iovMax)
		for s := 0; s < nseg; s++ {
			seg := v.Seg(s)
			iov = append(iov, syscall.Iovec{Base: &seg[0]})
			iov[len(iov)-1].SetLen(len(seg))
		}
		slot := tail & r.sqMask
		r.sqes[slot] = uringSQE{
			opcode:   opcode,
			fd:       r.file,
			off:      uint64(ops[i].off),
			addr:     uint64(uintptr(unsafe.Pointer(&iov[first]))),
			len:      uint32(nseg),
			userData: uint64(i),
		}
		r.sqArray[slot] = slot
		tail++
	}
	atomic.StoreUint32(r.sqTail, tail)

	pending, inflight := len(ops), 0 // not yet consumed / consumed, CQE not yet reaped
	for pending > 0 || inflight > 0 {
		got, errno := r.enter(r.fd, uint32(pending), uint32(pending+inflight), uringEnterGetEvents)
		switch {
		case errno == 0 && pending > 0 && got > 0:
			// Fewer than pending means the kernel stopped at an SQE it
			// rejected (that one completes with an error CQE); the rest
			// are still queued and go down on the next turn.
			syscalls++
			pending -= got
			inflight += got
		case errno == 0 && pending == 0, errno == syscall.EINTR:
			// A wait that ended, by completion or by signal: reap below
			// and go again if anything is still out.
		case pending > 0:
			// The kernel will not take the remaining SQEs (or took none
			// and said nothing). Withdraw them — the tail goes back to
			// what the kernel has consumed — and fail their ops.
			if errno == 0 {
				errno = syscall.EIO
			}
			atomic.StoreUint32(r.sqTail, atomic.LoadUint32(r.sqHead))
			for i := len(ops) - pending; i < len(ops); i++ {
				ops[i].n, ops[i].err = 0, errno
			}
			pending = 0
		default:
			// A wait-only enter failed with transfers in flight. There
			// is nothing to do but yield and wait again.
			runtime.Gosched()
		}
		head := *r.cqHead // only this side writes the CQ head
		for ; head != atomic.LoadUint32(r.cqTail); head++ {
			cqe := r.cqes[head&r.cqMask]
			op := &ops[cqe.userData]
			if cqe.res < 0 {
				op.n, op.err = 0, syscall.Errno(-cqe.res)
			} else {
				op.n, op.err = int(cqe.res), nil
			}
			inflight--
		}
		atomic.StoreUint32(r.cqHead, head)
	}
	runtime.KeepAlive(ops)
	clear(iov) // the slab must not pin the callers' buffers until the next batch
	return syscalls
}
