//go:build linux

package storage

import (
	"errors"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// iovMax is the kernel's UIO_MAXIOV: the most iovecs one preadv/pwritev
// accepts. A transfer with more segments issues multiple syscalls; the
// shared retry loop handles the resulting short counts like any other.
const iovMax = 1024

// directOpenFlag returns the platform's O_DIRECT bit.
func directOpenFlag() (int, error) { return syscall.O_DIRECT, nil }

// isDirectRefused reports whether an open failure means the file system
// cannot serve O_DIRECT (tmpfs and friends answer EINVAL).
func isDirectRefused(err error) bool { return errors.Is(err, syscall.EINVAL) }

// isEINTR reports a transfer attempt interrupted by a signal — the one
// failure the retry loop re-issues without counting progress.
func isEINTR(err error) bool { return errors.Is(err, syscall.EINTR) }

// isEAGAIN reports a ring completion the kernel could neither serve
// without blocking nor hand to a worker; the extent is re-issued through
// the blocking syscall path.
func isEAGAIN(err error) bool { return errors.Is(err, syscall.EAGAIN) }

// platformVIO returns the raw preadv/pwritev backend.
func platformVIO() vectorIO { return rawVIO{} }

// rawVIO issues one preadv/pwritev per attempt. The stdlib syscall
// package carries the syscall numbers and Iovec type on every Linux
// arch, so no external module is needed; offsets travel split into
// low/high halves the way the kernel's pos_from_hilo expects (the high
// word is shifted out on 64-bit).
type rawVIO struct{}

func (rawVIO) readv(f *os.File, fd int, segs [][]byte, off int64) (int, error) {
	return vecSyscall(syscall.SYS_PREADV, f, fd, segs, off)
}

func (rawVIO) writev(f *os.File, fd int, segs [][]byte, off int64) (int, error) {
	return vecSyscall(syscall.SYS_PWRITEV, f, fd, segs, off)
}

func vecSyscall(trap uintptr, f *os.File, fd int, segs [][]byte, off int64) (int, error) {
	iov := make([]syscall.Iovec, 0, min(len(segs), iovMax))
	for _, s := range segs {
		if len(s) == 0 {
			continue
		}
		if len(iov) == iovMax {
			break
		}
		v := syscall.Iovec{Base: &s[0]}
		v.SetLen(len(s))
		iov = append(iov, v)
	}
	if len(iov) == 0 {
		return 0, nil
	}
	n, _, errno := syscall.Syscall6(trap, uintptr(fd),
		uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)),
		uintptr(off), uintptr(uint64(off)>>32), 0)
	runtime.KeepAlive(iov)
	runtime.KeepAlive(f)
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}
