package thinp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// BenchmarkConcurrentWriters is the writer-scaling sweep on calls users can
// make: N goroutines in a commit-per-write loop where every op discards its
// vblock, writes it again — a fresh provision through the RANDOM allocator,
// the MobiCeal production picker — and commits. Each thin's virtual space
// is fully provisioned before the timer starts, so the timed region
// measures the steady state — every op allocates a fresh block and frees
// one — rather than first-touch growth of the metadata image.
//
// procs=P/writers=N crosses writer counts with GOMAXPROCS 1 and 4 on
// RAM-speed devices: at one proc concurrency can only add overhead (the
// regression guard), at four the allocation mutex, the thin locks and the
// commit door are contended. synclat=100µs/writers=N puts the metadata
// device behind a 100 µs flush (eMMC cache flush is hundreds of
// microseconds to milliseconds), the latency group commit amortizes.
// commits/flip is the group-commit fold over the timed region; DESIGN.md
// "Commit rounds" carries the table and what it rests on (the door hold).
// procs=4/shared/writers=N puts all N writers on thin 1, each on vblocks
// of its own: the same-thin contention (thin lock, transfer guard) the
// per-thin cases never meet.
func BenchmarkConcurrentWriters(b *testing.B) {
	for _, procs := range []int{1, 4} {
		for _, writers := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("procs=%d/writers=%d", procs, writers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				benchWriters(b, writers, 0, false)
			})
		}
	}
	for _, writers := range []int{2, 4} {
		b.Run(fmt.Sprintf("procs=4/shared/writers=%d", writers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			benchWriters(b, writers, 0, true)
		})
	}
	const lat = 100 * time.Microsecond
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("synclat=%v/writers=%d", lat, writers), func(b *testing.B) {
			benchWriters(b, writers, lat, false)
		})
	}
}

// benchWriters runs the sweep's loop with writers goroutines, each on a
// thin of its own, or, with shared set, all on thin 1, writer w on the
// vblocks congruent to w modulo writers.
func benchWriters(b *testing.B, writers int, lat time.Duration, shared bool) {
	const (
		virt       = 1024
		dataBlocks = 128 * 1024
	)
	data := storage.NewMemDevice(blockSize, dataBlocks)
	var meta storage.Device = storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	if lat > 0 {
		meta = &syncLatencyDevice{Device: meta, delay: lat}
	}
	p, err := CreatePool(data, meta, Options{
		Allocator: NewRandomAllocator(prng.NewSource(1)),
		Entropy:   prng.NewSeededEntropy(2),
		DummySrc:  prng.NewSource(3),
	})
	if err != nil {
		b.Fatal(err)
	}
	init := make([]byte, virt*blockSize)
	thins := writers
	if shared {
		thins = 1
	}
	for id := 1; id <= thins; id++ {
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
			id, first, stride := w+1, uint64(0), uint64(1)
			if shared {
				id, first, stride = 1, uint64(w), uint64(writers)
			}
			thin, err := p.Thin(id)
			if err != nil {
				b.Error(err)
				return
			}
			buf := make([]byte, blockSize)
			var i uint64
			for next.Add(1) <= int64(b.N) {
				vb := (first + i*stride) % virt
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
}
