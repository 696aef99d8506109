package thinp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// reportFold reports the group-commit fold — commits per flip — over the
// region between two snapshots.
func reportFold(b *testing.B, start, end PoolSnapshot) {
	fold := PoolSnapshot{
		CommitCalls: end.CommitCalls - start.CommitCalls,
		CommitFlips: end.CommitFlips - start.CommitFlips,
	}.FoldRatio()
	if fold > 0 {
		b.ReportMetric(fold, "commits/flip")
	}
}

// BenchmarkShardedWriters is the PR 8 scaling sweep on calls users can
// make: N goroutines in a commit-per-write loop where every op discards its
// vblock, writes it again — a fresh provision through the RANDOM allocator,
// the MobiCeal production picker — and commits. Each thin's virtual space
// is fully provisioned before the timer starts, so the timed region
// measures the steady state — every op allocates a fresh block and frees
// one — rather than first-touch growth of the metadata image. The sweep
// crosses writer counts with GOMAXPROCS 1 and 4: at one proc the sharded
// locks can only add overhead (the regression guard), at four they are the
// whole point. commits/flip is the group-commit fold over the timed region;
// DESIGN.md "Commit rounds" carries the table and what it rests on (the
// door hold).
func BenchmarkShardedWriters(b *testing.B) {
	const (
		virt       = 1024
		dataBlocks = 128 * 1024
	)
	for _, procs := range []int{1, 4} {
		for _, writers := range []int{1, 4, 16, 64} {
			name := fmt.Sprintf("procs=%d/writers=%d", procs, writers)
			b.Run(name, func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				data := storage.NewMemDevice(blockSize, dataBlocks)
				meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
				p, err := CreatePool(data, meta, Options{
					Allocator: NewRandomAllocator(prng.NewSource(1)),
					Entropy:   prng.NewSeededEntropy(2),
					DummySrc:  prng.NewSource(3),
				})
				if err != nil {
					b.Fatal(err)
				}
				init := make([]byte, virt*blockSize)
				for id := 1; id <= writers; id++ {
					if err := p.CreateThin(id, virt); err != nil {
						b.Fatal(err)
					}
					thin, err := p.Thin(id)
					if err != nil {
						b.Fatal(err)
					}
					if err := storage.WriteBlocks(thin, 0, init); err != nil {
						b.Fatal(err)
					}
				}
				if err := p.Commit(); err != nil {
					b.Fatal(err)
				}
				start := p.MetricsSnapshot()

				b.SetBytes(blockSize)
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						thin, err := p.Thin(w + 1)
						if err != nil {
							b.Error(err)
							return
						}
						buf := make([]byte, blockSize)
						var i uint64
						for next.Add(1) <= int64(b.N) {
							vb := i % virt
							i++
							if err := thin.Discard(vb); err != nil {
								b.Error(err)
								return
							}
							if err := thin.WriteBlock(vb, buf); err != nil {
								b.Error(err)
								return
							}
							if err := p.Commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				reportFold(b, start, p.MetricsSnapshot())
			})
		}
	}
}
