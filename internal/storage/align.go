package storage

import (
	"sync"
	"unsafe"
)

// DirectAlign is the memory and offset alignment the direct-I/O file
// backend requires: one page. O_DIRECT's real contract is the logical
// block size of the underlying device (often 512), but page alignment
// satisfies every Linux filesystem and device, so the repo standardizes
// on it — a buffer that is page-aligned is aligned for any backend.
const DirectAlign = 4096

// IsAligned reports whether b's first byte sits on an align-byte boundary.
// Empty buffers are trivially aligned (they carry no transfer).
func IsAligned(b []byte, align int) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%uintptr(align) == 0
}

// AlignedBuf allocates a buffer of length n whose first byte is
// DirectAlign-aligned. Callers feeding a direct-mode FileDevice allocate
// their block buffers through this helper (or AlignedPool) so the device
// can hand them straight to an O_DIRECT preadv/pwritev without a bounce
// copy.
func AlignedBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	raw := make([]byte, n+DirectAlign)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % DirectAlign; rem != 0 {
		off = DirectAlign - int(rem)
	}
	return raw[off : off+n : off+n]
}

// AlignedPool is a reusable pool of page-aligned I/O-path scratch buffers
// (the mempool analogue): Get returns a DirectAlign-aligned buffer of
// exactly n bytes, reusing a pooled allocation when one is large enough.
// The direct-mode FileDevice draws its bounce buffers from one of these,
// so misaligned callers pay a copy but not an allocation per transfer; the
// dm-crypt target draws its ciphertext buffers from another, so what it
// sends down is aligned by contract and never bounces.
type AlignedPool struct {
	p sync.Pool
}

// Get returns an aligned buffer of length n.
func (a *AlignedPool) Get(n int) []byte {
	if buf, ok := a.p.Get().(*[]byte); ok && cap(*buf) >= n {
		return (*buf)[:n]
	}
	return AlignedBuf(n)
}

// Put returns buf to the pool. Only buffers obtained from Get (or
// otherwise DirectAlign-aligned at their backing array's start) should be
// returned; the pool trusts the caller and does not re-check.
func (a *AlignedPool) Put(buf []byte) {
	a.p.Put(&buf)
}
