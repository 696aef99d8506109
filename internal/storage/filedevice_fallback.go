//go:build !linux

package storage

import "os"

// Non-Linux builds fall back to os.File positional I/O: one ReadAt /
// WriteAt per segment inside a single "vectored" attempt, so the shared
// transfer loop, accounting and partial-error rebasing behave identically
// — a preadv "call" here is the loop standing in for one. Direct I/O is
// not offered: O_DIRECT semantics vary wildly off Linux (macOS wants
// F_NOCACHE, others nothing at all), so the open fails cleanly with
// ErrDirectUnsupported instead of pretending.

func directOpenFlag() (int, error) { return 0, ErrDirectUnsupported }

func isDirectRefused(err error) bool { return false }

// isEINTR: os.File retries EINTR internally, so the fallback never
// surfaces it.
func isEINTR(err error) bool { return false }

// isEAGAIN: only a submission ring reports it, and there is none here.
func isEAGAIN(err error) bool { return false }

func platformVIO() vectorIO { return fileVIO{} }

// platformBatchIO is nil: without a submission ring every batch takes the
// serial loop.
var platformBatchIO func(fd int) (batchIO, error)

type fileVIO struct{}

func (fileVIO) readv(f *os.File, _ int, segs [][]byte, off int64) (int, error) {
	done := 0
	for _, s := range segs {
		n, err := f.ReadAt(s, off+int64(done))
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

func (fileVIO) writev(f *os.File, _ int, segs [][]byte, off int64) (int, error) {
	done := 0
	for _, s := range segs {
		n, err := f.WriteAt(s, off+int64(done))
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
