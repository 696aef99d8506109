package storage

// RangeDevice is the flat-buffer transfer surface of the two leaf devices
// (MemDevice, FileDevice): a range operation moves len(buf)/BlockSize
// consecutive blocks in one call. Nothing dispatches on it — both leaves
// are Doers — and it stays declared because the frozen bench module's
// timing shim asserts it on the backends.
type RangeDevice interface {
	Device
	// ReadBlocks copies blocks [start, start+len(dst)/BlockSize) into dst.
	// len(dst) must be a multiple of BlockSize.
	ReadBlocks(start uint64, dst []byte) error
	// WriteBlocks stores src as blocks [start, start+len(src)/BlockSize).
	// len(src) must be a multiple of BlockSize.
	WriteBlocks(start uint64, src []byte) error
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
