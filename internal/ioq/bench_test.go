package ioq

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
)

// BenchmarkVolumeService measures the concurrent volume service end to
// end: V thin volumes on one pool, each driven by its own submitter
// goroutine issuing 4-block async writes with a durability flush every 8
// requests. direct/1 is the synchronous baseline the async path must not
// fall behind at GOMAXPROCS=1; the commits/flip metric shows concurrent
// volumes' flushes folding into shared group commits.
func BenchmarkVolumeService(b *testing.B) {
	const (
		virt      = 2048
		reqBlocks = 4
		flushEvry = 8
	)
	for _, mode := range []string{"direct", "ioq"} {
		for _, volumes := range []int{1, 4} {
			if mode == "direct" && volumes != 1 {
				continue
			}
			b.Run(fmt.Sprintf("%s/volumes=%d", mode, volumes), func(b *testing.B) {
				dataBlocks := uint64(volumes) * virt * 2
				data := storage.NewMemDevice(blockSize, dataBlocks)
				meta := storage.NewMemDevice(blockSize, thinp.MetaBlocksNeeded(dataBlocks, blockSize))
				pool, err := thinp.CreatePool(data, meta, thinp.Options{
					Entropy:  prng.NewSeededEntropy(1),
					DummySrc: prng.NewSource(2),
				})
				if err != nil {
					b.Fatal(err)
				}
				thins := make([]*thinp.Thin, volumes)
				for v := 0; v < volumes; v++ {
					if err := pool.CreateThin(v+1, virt); err != nil {
						b.Fatal(err)
					}
					if thins[v], err = pool.Thin(v + 1); err != nil {
						b.Fatal(err)
					}
				}
				start := pool.MetricsSnapshot()
				b.SetBytes(reqBlocks * blockSize)
				b.ResetTimer()

				if mode == "direct" {
					thin := thins[0]
					buf := make([]byte, reqBlocks*blockSize)
					for i := 0; i < b.N; i++ {
						off := uint64(i*reqBlocks) % (virt - reqBlocks)
						if err := storage.WriteBlocks(thin, off, buf); err != nil {
							b.Fatal(err)
						}
						if i%flushEvry == flushEvry-1 {
							if err := thin.Sync(); err != nil {
								b.Fatal(err)
							}
						}
					}
				} else {
					s := NewScheduler(Options{})
					var next atomic.Int64
					var wg sync.WaitGroup
					for v := 0; v < volumes; v++ {
						wg.Add(1)
						go func(v int) {
							defer wg.Done()
							q := s.Register(thins[v])
							buf := make([]byte, reqBlocks*blockSize)
							var i uint64
							for next.Add(1) <= int64(b.N) {
								off := (i * reqBlocks) % (virt - reqBlocks)
								i++
								f := q.SubmitWrite(off, buf)
								if i%flushEvry == 0 {
									if err := q.Flush().Wait(); err != nil {
										b.Error(err)
										return
									}
								} else if err := f.Wait(); err != nil {
									b.Error(err)
									return
								}
							}
							if err := q.Flush().Wait(); err != nil {
								b.Error(err)
							}
						}(v)
					}
					wg.Wait()
					s.Close()
				}
				b.StopTimer()
				end := pool.MetricsSnapshot()
				fold := thinp.PoolSnapshot{
					CommitCalls: end.CommitCalls - start.CommitCalls,
					CommitFlips: end.CommitFlips - start.CommitFlips,
				}.FoldRatio()
				if fold > 0 {
					b.ReportMetric(fold, "commits/flip")
				}
			})
		}
	}
}

// BenchmarkRetryOverhead pits the scheduler with retry disabled against the
// default retry policy on a fault-free device. The resilience machinery —
// per-attempt bookkeeping, transient classification — sits on every
// dispatch, so its no-fault cost must stay at zero; the committed
// BENCH_PR6.json pair pins that. The faulty=1 variants run the same loop
// with a seeded 2% transient-fault stream, showing what absorbing real
// faults costs end to end (retried requests pay the backoff sleep).
func BenchmarkRetryOverhead(b *testing.B) {
	const reqBlocks = 4
	for _, faulty := range []int{0, 1} {
		for _, mode := range []string{"off", "on"} {
			if faulty == 1 && mode == "off" {
				continue // a fault stream without retry just fails requests
			}
			b.Run(fmt.Sprintf("faulty=%d/retry=%s", faulty, mode), func(b *testing.B) {
				inner := storage.NewMemDevice(blockSize, 4096)
				var dev storage.Device = inner
				if faulty == 1 {
					dev = storage.NewFlakyDevice(inner, storage.FlakyOptions{
						Seed:          1,
						TransientRate: 0.02,
					})
				}
				opts := Options{Workers: 1}
				if mode == "off" {
					opts.Retry = RetryPolicy{MaxAttempts: -1}
				}
				s := NewScheduler(opts)
				defer s.Close()
				q := s.Register(dev)
				buf := make([]byte, reqBlocks*blockSize)
				b.SetBytes(reqBlocks * blockSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := uint64(i*reqBlocks) % (4096 - reqBlocks)
					if err := q.SubmitWrite(off, buf).Wait(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if st := s.MetricsSnapshot(); st.Recovered > 0 {
					b.ReportMetric(float64(st.Recovered), "recovered")
				}
			})
		}
	}
}

// BenchmarkSubmitWait prices the round trip of the smallest request, the
// mechanism behind the ledger's RAM rows without the stack above it: two
// submitter goroutines each issue 4 KiB SubmitRead(...).Wait() calls,
// one outstanding at a time, through one queue over a MemDevice. Run it at
// -cpu 1,2: at GOMAXPROCS 2 a request whose completion readies a goroutine
// on a busy P waits out the scheduler's steal back-off, which shows in
// p99-µs.
func BenchmarkSubmitWait(b *testing.B) {
	const (
		bs        = 4096
		blocks    = 1024
		issuers   = 2
		reqBlocks = 1
	)
	dev := storage.NewMemDevice(bs, blocks)
	if err := storage.WriteBlocks(dev, 0, make([]byte, blocks*bs)); err != nil {
		b.Fatal(err)
	}
	s := NewScheduler(Options{})
	defer s.Close()
	q := s.Register(dev)
	lat := make([][]time.Duration, issuers)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.SetBytes(reqBlocks * bs)
	b.ResetTimer()
	for c := 0; c < issuers; c++ {
		lat[c] = make([]time.Duration, 0, b.N)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, reqBlocks*bs)
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				t0 := time.Now()
				if err := q.SubmitRead(uint64(i*7)%blocks, buf).Wait(); err != nil {
					b.Error(err)
					return
				}
				lat[c] = append(lat[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	all := slices.Concat(lat...)
	slices.Sort(all)
	if len(all) == 0 {
		return
	}
	pct := func(p float64) float64 {
		return float64(all[int(p*float64(len(all)-1))].Nanoseconds()) / 1e3
	}
	b.ReportMetric(pct(0.50), "p50-µs")
	b.ReportMetric(pct(0.99), "p99-µs")
}
