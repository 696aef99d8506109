// Package storage provides the block-device substrate of the MobiCeal
// reproduction.
//
// Real MobiCeal sits on an eMMC card exposed through a flash translation
// layer as a plain block device; the multi-snapshot adversary of the paper
// (Sec. III-A) observes nothing but full images of that device taken at
// different points in time. This package therefore models exactly that
// surface: fixed-size blocks, random access, full-image snapshots, and
// instrumentation so the higher layers (device mapper, thin provisioning,
// MobiCeal core) and the adversary toolkit can observe the same things the
// paper's components do.
package storage

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by device implementations.
var (
	// ErrOutOfRange reports a block index at or beyond the device end.
	ErrOutOfRange = errors.New("storage: block index out of range")
	// ErrBadBuffer reports a read/write buffer whose length is not the
	// device block size.
	ErrBadBuffer = errors.New("storage: buffer length != block size")
	// ErrClosed reports I/O on a closed device.
	ErrClosed = errors.New("storage: device is closed")
	// ErrReadOnly reports a write to a read-only device or snapshot view.
	ErrReadOnly = errors.New("storage: device is read-only")
)

// Device is a fixed-block-size random-access block device. All reads and
// writes are whole-block. Implementations must be safe for concurrent use.
type Device interface {
	// ReadBlock copies block idx into dst. len(dst) must equal BlockSize.
	ReadBlock(idx uint64, dst []byte) error
	// WriteBlock stores src as block idx. len(src) must equal BlockSize.
	WriteBlock(idx uint64, src []byte) error
	// BlockSize returns the size of one block in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// Sync flushes buffered state to stable storage.
	Sync() error
	// Close releases resources; subsequent I/O fails with ErrClosed.
	Close() error
}

// checkIO validates a block-granular I/O request against a device geometry.
func checkIO(idx uint64, buf []byte, blockSize int, numBlocks uint64) error {
	if idx >= numBlocks {
		return fmt.Errorf("%w: block %d, device has %d", ErrOutOfRange, idx, numBlocks)
	}
	if len(buf) != blockSize {
		return fmt.Errorf("%w: got %d, want %d", ErrBadBuffer, len(buf), blockSize)
	}
	return nil
}

// ReadFull reads n consecutive blocks starting at start into a single
// buffer. It is a convenience for tests and workloads; the transfer is one
// request through Do.
func ReadFull(d Device, start, n uint64) ([]byte, error) {
	out := make([]byte, int(n)*d.BlockSize())
	if err := ReadBlocks(d, start, out); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteFull writes len(data)/BlockSize consecutive blocks starting at start.
// len(data) must be a multiple of the block size.
func WriteFull(d Device, start uint64, data []byte) error {
	return WriteBlocks(d, start, data)
}
