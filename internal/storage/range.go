package storage

import "fmt"

// RangeDevice is the flat-buffer transfer surface of the two leaf devices
// (MemDevice, FileDevice): a range operation moves len(buf)/BlockSize
// consecutive blocks in one call. Nothing dispatches on it — Do reaches a
// leaf through VecDevice, a flat buffer being a one-segment vec — and it
// stays declared because the frozen bench module's timing shim asserts it
// on the backends.
type RangeDevice interface {
	Device
	// ReadBlocks copies blocks [start, start+len(dst)/BlockSize) into dst.
	// len(dst) must be a multiple of BlockSize.
	ReadBlocks(start uint64, dst []byte) error
	// WriteBlocks stores src as blocks [start, start+len(src)/BlockSize).
	// len(src) must be a multiple of BlockSize.
	WriteBlocks(start uint64, src []byte) error
}

// checkRangeIO validates a multi-block I/O request against a device
// geometry. Zero-length ranges are valid no-ops.
func checkRangeIO(start uint64, buf []byte, blockSize int, numBlocks uint64) error {
	if len(buf)%blockSize != 0 {
		return fmt.Errorf("%w: range buffer %d not a multiple of %d",
			ErrBadBuffer, len(buf), blockSize)
	}
	n := uint64(len(buf) / blockSize)
	if n == 0 {
		return nil
	}
	if start >= numBlocks || n > numBlocks-start {
		return fmt.Errorf("%w: blocks [%d, %d), device has %d",
			ErrOutOfRange, start, start+n, numBlocks)
	}
	return nil
}

// ForEachRun walks a sorted slice of block indexes and invokes fn once per
// maximal run of consecutive indexes, with the run's first index and
// length. Callers use it to turn block sets into vectored range operations
// (run-length discards, coalesced metadata application).
func ForEachRun(sorted []uint64, fn func(start uint64, count int) error) error {
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[j-1]+1 {
			j++
		}
		if err := fn(sorted[i], j-i); err != nil {
			return err
		}
		i = j
	}
	return nil
}
