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

// blockReplacer matches the reallocate-on-write entry point. The benchmark
// file also drops unchanged into the pre-PR tree (for the A/B baseline in
// BENCH_PR8.json), where the same logical rewrite is the two-call
// discard + write sequence — the assertion picks whichever the tree has.
type blockReplacer interface {
	ReplaceBlock(idx uint64, src []byte) error
}

// reallocWrite re-provisions vb with fresh payload: one ReplaceBlock where
// available, discard + write otherwise.
func reallocWrite(thin *Thin, vb uint64, buf []byte) error {
	if r, ok := any(thin).(blockReplacer); ok {
		return r.ReplaceBlock(vb, buf)
	}
	if err := thin.Discard(vb); err != nil {
		return err
	}
	return thin.WriteBlock(vb, buf)
}

// BenchmarkShardedWriters is the PR 8 scaling sweep: N goroutines in a
// commit-per-write loop where every op re-provisions its vblock (a
// reallocate-on-write against the RANDOM allocator — the MobiCeal
// production picker whose provisioning previously serialized every writer
// on the pool's exclusive mapping lock) and every write commits. Each
// thin's virtual space is fully provisioned before the timer starts, so
// the timed region measures the steady state — every op allocates a fresh
// block and frees one — rather than first-touch growth of the metadata
// image. The sweep crosses writer counts with GOMAXPROCS 1 and 4: at one
// proc the sharded locks can only add overhead (the regression guard), at
// four they are the whole point. The benchmark deliberately uses only the
// long-stable pool API (CreatePool/CreateThin/WriteBlock/Commit/
// CommitStats) plus the duck-typed reallocWrite above, so the same file
// drops into the pre-PR tree for the A/B pair committed in BENCH_PR8.json.
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
				startCalls, startFlips := p.CommitStats()

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
							if err := reallocWrite(thin, vb, buf); err != nil {
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
				calls, flips := p.CommitStats()
				calls -= startCalls
				flips -= startFlips
				if flips > 0 {
					b.ReportMetric(float64(calls)/float64(flips), "commits/flip")
				}
			})
		}
	}
}
