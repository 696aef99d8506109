package thinp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// syncLatencyDevice models a medium whose flush costs real time (eMMC
// cache flush is hundreds of microseconds to milliseconds). Group commit's
// win is amortizing exactly this latency across concurrent committers, so
// the benchmark runs both a zero-latency MemDevice (pure CPU cost) and a
// latency-modeled variant.
type syncLatencyDevice struct {
	storage.Device
	delay time.Duration
}

func (d *syncLatencyDevice) Sync() error {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return d.Device.Sync()
}

// BenchmarkConcurrentWriters drives N goroutines that each perform a
// commit-per-write loop (the worst-case durability demand: every block
// write is followed by a metadata commit, remapping its vblock so each
// commit carries a real delta). The commits/flip metric is the group
// commit door's folding factor — serial callers see 1.0, concurrent
// callers fold many commits into one A/B slot flip.
func BenchmarkConcurrentWriters(b *testing.B) {
	const (
		virt       = 1024
		dataBlocks = 64 * 1024
	)
	for _, lat := range []time.Duration{0, 100 * time.Microsecond} {
		for _, writers := range []int{1, 4, 16} {
			name := fmt.Sprintf("synclat=%v/writers=%d", lat, writers)
			b.Run(name, func(b *testing.B) {
				data := storage.NewMemDevice(blockSize, dataBlocks)
				var meta storage.Device = storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
				if lat > 0 {
					meta = &syncLatencyDevice{Device: meta, delay: lat}
				}
				p, err := CreatePool(data, meta, Options{
					Entropy:  prng.NewSeededEntropy(1),
					DummySrc: prng.NewSource(2),
				})
				if err != nil {
					b.Fatal(err)
				}
				for id := 1; id <= writers; id++ {
					if err := p.CreateThin(id, virt); err != nil {
						b.Fatal(err)
					}
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
							// Remap so every commit carries a delta: the
							// overwrite of an established vblock is first
							// discarded, making the write re-provision.
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
