package ioq

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
)

// plugDevice lets a benchmark iteration pile requests into the staging
// queue deterministically: while armed, a write to the plug block parks
// the (only) worker inside the device until the gate opens, so everything
// submitted meanwhile drains as one batch and merges into one run.
type plugDevice struct {
	storage.Device
	plug    uint64
	armed   atomic.Bool
	gate    chan struct{}
	entered chan struct{}
}

func (d *plugDevice) arm() {
	d.gate = make(chan struct{})
	d.entered = make(chan struct{})
	d.armed.Store(true)
}

func (d *plugDevice) Do(reqs []storage.Req) error {
	if r := &reqs[0]; r.Op == storage.OpWrite && r.Start == d.plug && d.armed.CompareAndSwap(true, false) {
		close(d.entered)
		<-d.gate
	}
	return storage.Do(d.Device, reqs)
}

// BenchmarkMergedRun measures one large coalesced dispatch: a plug write
// parks the only worker, reqs adjacent same-kind requests stage behind it,
// and the batch drains as a single merged device operation: the merged run
// dispatches the callers' own buffers as one scatter-gather request.
func BenchmarkMergedRun(b *testing.B) {
	const (
		reqs      = 32
		reqBlocks = 4
		plugIdx   = reqs * reqBlocks * 2
	)
	for _, kind := range []string{"write", "read"} {
		b.Run(fmt.Sprintf("zerocopy/%s/reqs=%d/blocks=%d", kind, reqs, reqBlocks), func(b *testing.B) {
			mem := storage.NewMemDevice(blockSize, plugIdx+8)
			plug := &plugDevice{Device: mem, plug: plugIdx}
			s := NewScheduler(Options{Workers: 1})
			defer s.Close()
			q := s.Register(plug)
			bufs := make([][]byte, reqs)
			for i := range bufs {
				bufs[i] = make([]byte, reqBlocks*blockSize)
			}
			plugBuf := make([]byte, blockSize)
			futs := make([]*Future, reqs)
			b.SetBytes(reqs * reqBlocks * blockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plug.arm()
				pf := q.SubmitWrite(plugIdx, plugBuf)
				<-plug.entered
				for r := 0; r < reqs; r++ {
					start := uint64(r * reqBlocks)
					if kind == "write" {
						futs[r] = q.SubmitWrite(start, bufs[r])
					} else {
						futs[r] = q.SubmitRead(start, bufs[r])
					}
				}
				close(plug.gate)
				if err := pf.Wait(); err != nil {
					b.Fatal(err)
				}
				if err := WaitAll(futs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
// per-attempt bookkeeping, transient classification, deadline checks — sits
// on every dispatch, so its no-fault cost must stay at zero; the committed
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
