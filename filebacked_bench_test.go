package mobiceal_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"mobiceal"
	"mobiceal/internal/ioq"
	"mobiceal/internal/storage"
)

// Real-storage concurrent-writer throughput across backend (MemDevice /
// buffered file / O_DIRECT file). The queue benchmarks A/B the scheduler's
// one parallelism setting — workers=1 hands a batch's runs out one at a
// time, workers=4 keeps up to four at the device — and the full-stack
// benchmark runs the default Config. BENCH_PR10.json is frozen history: it
// measured the same shapes against the dispatch window this axis replaced;
// DESIGN.md "ioq" has the before/after table.
//
// Run these with GOMAXPROCS >= the worker count (-cpu 4). At GOMAXPROCS=1
// a goroutine blocking in preadv/pwritev holds its P until sysmon retakes
// it — tens of microseconds, about the cost of the whole syscall — so the
// in-flight runs serialize in the Go runtime before the kernel ever sees
// them and both worker counts measure the same serial device path.

const (
	fbBlockSize   = 4096
	fbChunkBlocks = 8  // one request: 32 KiB
	fbSlots       = 7  // chunk positions per writer region (the 8th stays
	fbRegion      = 64 // a gap, so writers' runs never merge cross-region)
)

// fbDevice builds the backend under test. The direct backend skips where
// the filesystem refuses O_DIRECT (tmpfs TMPDIR, non-Linux builds).
func fbDevice(b *testing.B, backend string, numBlocks uint64) storage.Device {
	b.Helper()
	switch backend {
	case "mem":
		return mobiceal.NewMemDevice(fbBlockSize, numBlocks)
	case "file", "direct":
		path := filepath.Join(b.TempDir(), "bench.img")
		dev, err := mobiceal.CreateImageWith(path, fbBlockSize, numBlocks,
			mobiceal.FileOptions{Direct: backend == "direct"})
		if errors.Is(err, mobiceal.ErrDirectUnsupported) {
			b.Skipf("direct I/O unavailable here: %v", err)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = dev.Close() })
		// Prefill so every timed write is an overwrite of an allocated
		// extent: ext4 serializes direct writes into sparse regions on the
		// exclusive inode lock, which would hide the window's parallelism
		// behind a filesystem artifact no steady-state image pays.
		fill := mobiceal.AlignedBuf(64 * fbBlockSize)
		for at := uint64(0); at < numBlocks; at += 64 {
			n := min(uint64(64), numBlocks-at)
			if err := storage.WriteBlocks(dev, at, fill[:n*fbBlockSize]); err != nil {
				b.Fatal(err)
			}
		}
		if err := dev.Sync(); err != nil {
			b.Fatal(err)
		}
		return dev
	}
	b.Fatalf("unknown backend %q", backend)
	return nil
}

// BenchmarkFileQueueWriters measures the scheduler alone — a VolumeQueue
// straight over the backend, no crypto or thin mapping — so the effect of
// handing runs to several workers on real syscalls is undiluted. Each
// iteration submits one disjoint chunk per writer and waits for all of
// them; with workers>1 those runs overlap at the device instead of
// queueing behind one another.
func BenchmarkFileQueueWriters(b *testing.B) {
	for _, backend := range []string{"mem", "file", "direct"} {
		for _, writers := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("backend=%s/writers=%d/workers=%d", backend, writers, workers)
				b.Run(name, func(b *testing.B) {
					dev := fbDevice(b, backend, uint64(writers*fbRegion+fbRegion))
					s := ioq.NewScheduler(ioq.Options{Workers: workers})
					defer s.Close()
					q := s.Register(dev)

					bufs := make([][]byte, writers)
					for w := range bufs {
						// Page-aligned sources keep the direct backend on
						// the zero-copy path, and cost the others nothing.
						bufs[w] = mobiceal.AlignedBuf(fbChunkBlocks * fbBlockSize)
						for i := range bufs[w] {
							bufs[w][i] = byte(w*31 + i)
						}
					}
					futs := make([]*mobiceal.Future, writers)
					b.SetBytes(int64(writers * fbChunkBlocks * fbBlockSize))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for w := 0; w < writers; w++ {
							off := uint64(w*fbRegion + (i%fbSlots)*fbChunkBlocks)
							futs[w] = q.SubmitWrite(off, bufs[w])
						}
						if err := ioq.WaitAll(futs...); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFileQueueReaders is the read-side A/B. On hosts where direct
// writes to one inode serialize in the kernel (single-queue virtio, the
// ext4 allocation path), reads are where the overlap shows: a direct read
// is a genuine device round trip the next run can hide behind, so
// readers=4/workers=4 should clearly beat workers=1.
func BenchmarkFileQueueReaders(b *testing.B) {
	for _, backend := range []string{"mem", "file", "direct"} {
		for _, readers := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("backend=%s/readers=%d/workers=%d", backend, readers, workers)
				b.Run(name, func(b *testing.B) {
					dev := fbDevice(b, backend, uint64(readers*fbRegion+fbRegion))
					s := ioq.NewScheduler(ioq.Options{Workers: workers})
					defer s.Close()
					q := s.Register(dev)

					bufs := make([][]byte, readers)
					for r := range bufs {
						bufs[r] = mobiceal.AlignedBuf(fbChunkBlocks * fbBlockSize)
					}
					futs := make([]*mobiceal.Future, readers)
					b.SetBytes(int64(readers * fbChunkBlocks * fbBlockSize))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for r := 0; r < readers; r++ {
							off := uint64(r*fbRegion + (i%fbSlots)*fbChunkBlocks)
							futs[r] = q.SubmitRead(off, bufs[r])
						}
						if err := ioq.WaitAll(futs...); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFileSystemWriters drives the same writers through the whole
// stack — Setup, an open public volume, encryption, thin provisioning,
// pool commits — under the default Config, so the committed numbers show
// what the fast path is worth end to end, not just at the queue.
func BenchmarkFileSystemWriters(b *testing.B) {
	const writers = 4
	for _, backend := range []string{"mem", "file", "direct"} {
		b.Run("backend="+backend, func(b *testing.B) {
			dev := fbDevice(b, backend, 4096)
			sys, err := mobiceal.Setup(dev, testConfig(77), "decoy", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			vol, err := sys.OpenPublic("decoy")
			if err != nil {
				b.Fatal(err)
			}

			base := vol.Device().NumBlocks() - uint64(writers*fbRegion) - 8
			bufs := make([][]byte, writers)
			for w := range bufs {
				bufs[w] = mobiceal.AlignedBuf(fbChunkBlocks * fbBlockSize)
				for i := range bufs[w] {
					bufs[w][i] = byte(w*17 + i)
				}
			}
			futs := make([]*mobiceal.Future, writers)
			b.SetBytes(int64(writers * fbChunkBlocks * fbBlockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < writers; w++ {
					off := base + uint64(w*fbRegion+(i%fbSlots)*fbChunkBlocks)
					futs[w] = vol.SubmitWrite(off, bufs[w])
				}
				if err := mobiceal.WaitAll(futs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
