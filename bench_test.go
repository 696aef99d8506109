// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Two kinds of numbers come out of each run:
//
//   - The Go benchmark figures (ns/op, MB/s) measure the real CPU cost of
//     this repository's implementations on the host machine.
//   - ReportMetric lines labelled "*_virt" carry the virtual-testbed
//     results that reproduce the paper's reported numbers (see
//     EXPERIMENTS.md for the paper-vs-measured record).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem .
package mobiceal_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mobiceal"
	"mobiceal/internal/adversary"
	"mobiceal/internal/baseline/defy"
	"mobiceal/internal/baseline/hive"
	"mobiceal/internal/dm"
	"mobiceal/internal/experiments"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/workload"
	"mobiceal/internal/xcrypto"
)

const benchBlockSize = 4096

// BenchmarkFig4 reproduces Figure 4: sequential throughput of the five
// storage stacks. Per-op cost is one 64 KB sequential write through the
// live stack; the *_virt metrics are the Nexus-4-profile KB/s of the full
// dd/Bonnie workloads.
func BenchmarkFig4(b *testing.B) {
	rows, err := experiments.Fig4(experiments.Fig4Config{FileMB: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	byName := map[string]experiments.Fig4Row{}
	for _, r := range rows {
		byName[r.Stack] = r
	}
	for _, name := range experiments.StackNames {
		name := name
		b.Run(name+"/write", func(b *testing.B) {
			st, err := experiments.NewStack(name, experiments.Fig4Config{FileMB: 16, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			f, err := st.FS.Create("bench.bin")
			if err != nil {
				b.Fatal(err)
			}
			chunk := make([]byte, 64*1024)
			span := int64(8) << 20
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * int64(len(chunk))) % span
				if _, err := f.WriteAt(chunk, off); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			row := byName[name]
			b.ReportMetric(row.DDWriteKBps, "ddwrite_virt_KB/s")
			b.ReportMetric(row.BWriteKBps, "bwrite_virt_KB/s")
		})
		b.Run(name+"/read", func(b *testing.B) {
			st, err := experiments.NewStack(name, experiments.Fig4Config{FileMB: 16, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			f, err := st.FS.Create("bench.bin")
			if err != nil {
				b.Fatal(err)
			}
			chunk := make([]byte, 64*1024)
			span := int64(8) << 20
			for off := int64(0); off < span; off += int64(len(chunk)) {
				if _, err := f.WriteAt(chunk, off); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * int64(len(chunk))) % span
				if _, err := f.ReadAt(chunk, off); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			row := byName[name]
			b.ReportMetric(row.DDReadKBps, "ddread_virt_KB/s")
			b.ReportMetric(row.BReadKBps, "bread_virt_KB/s")
		})
	}
}

// BenchmarkTableIOverhead reproduces Table I: per-op cost is one 4 KB write
// to each scheme's encrypted device; the overhead_virt_pct metric is the
// scheme's virtual-testbed overhead versus plain Ext4.
func BenchmarkTableIOverhead(b *testing.B) {
	rows, err := experiments.TableI(experiments.TableIConfig{FileMB: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	overheads := map[string]float64{}
	for _, r := range rows {
		overheads[r.Scheme] = r.OverheadPct
	}

	b.Run("DEFY", func(b *testing.B) {
		dev, err := defy.NewOverProfile(benchBlockSize, 4096, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, benchBlockSize)
		b.SetBytes(benchBlockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The log fills; wrap by re-creating when exhausted.
			if err := dev.WriteBlock(uint64(i)%dev.NumBlocks(), buf); err != nil {
				b.StopTimer()
				dev, err = defy.NewOverProfile(benchBlockSize, 4096, nil, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
		b.ReportMetric(overheads["DEFY"], "overhead_virt_pct")
	})

	b.Run("HIVE", func(b *testing.B) {
		key := make([]byte, 32)
		dev, err := hive.NewOverProfile(benchBlockSize, 4096, key, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, benchBlockSize)
		b.SetBytes(benchBlockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dev.WriteBlock(uint64(i)%dev.NumBlocks(), buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(overheads["HIVE"], "overhead_virt_pct")
	})

	b.Run("MobiCeal", func(b *testing.B) {
		st, err := experiments.NewStack("MC-P", experiments.Fig4Config{FileMB: 8, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		f, err := st.FS.Create("bench.bin")
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, benchBlockSize)
		span := int64(4) << 20
		b.SetBytes(benchBlockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (int64(i) * benchBlockSize) % span
			if _, err := f.WriteAt(buf, off); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(overheads["MobiCeal"], "overhead_virt_pct")
	})
}

// BenchmarkTableIITiming reproduces Table II: each op runs the full
// three-phone timing experiment; the metrics carry the virtual durations.
func BenchmarkTableIITiming(b *testing.B) {
	var rows []experiments.TableIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.TableII(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		prefix := strings.ReplaceAll(r.System, " ", "_")
		b.ReportMetric(r.Init.Seconds(), prefix+"_init_virt_s")
		b.ReportMetric(r.Boot.Seconds(), prefix+"_boot_virt_s")
		if r.HasSwitch {
			b.ReportMetric(r.SwitchIn.Seconds(), prefix+"_switchin_virt_s")
			b.ReportMetric(r.SwitchOut.Seconds(), prefix+"_switchout_virt_s")
		}
	}
}

// BenchmarkSecurityGame reproduces the Def. III.1 empirical game: each op
// is a 10-trial MobiCeal game (setup, epoch, snapshots, adversary guess),
// and the metric is the adversary's mean advantage across ops.
func BenchmarkSecurityGame(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		res, err := adversary.RunMobiCealGame(adversary.GameConfig{
			Trials:       10,
			Seed:         uint64(i + 1),
			PublicBlocks: 100,
			HiddenBlocks: 20,
			DeviceBlocks: 2048,
		})
		if err != nil {
			b.Fatal(err)
		}
		advantage += res.Advantage
	}
	b.ReportMetric(advantage/float64(b.N), "mean_advantage")
}

// BenchmarkAblationAllocator compares write cost under the two allocation
// strategies (Sec. IV-B): random (MobiCeal) versus sequential (stock).
func BenchmarkAblationAllocator(b *testing.B) {
	for _, sequential := range []bool{false, true} {
		name := "random"
		if sequential {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			dev := mobiceal.NewMemDevice(benchBlockSize, 16384)
			sys, err := mobiceal.Setup(dev, mobiceal.Config{
				NumVolumes:      8,
				KDFIter:         8,
				Entropy:         prng.NewSeededEntropy(1),
				Seed:            1,
				SeedSet:         true,
				SequentialAlloc: sequential,
			}, "decoy", nil)
			if err != nil {
				b.Fatal(err)
			}
			vol, err := sys.OpenPublic("decoy")
			if err != nil {
				b.Fatal(err)
			}
			fs, err := vol.Format()
			if err != nil {
				b.Fatal(err)
			}
			f, err := fs.Create("bench.bin")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, benchBlockSize)
			span := int64(16) << 20
			b.SetBytes(benchBlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * benchBlockSize) % span
				if _, err := f.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDummyRate sweeps lambda (Sec. IV-A Q1): real write cost
// of the MC-P stack as the dummy-write size parameter varies, with the
// measured dummy amplification as a metric.
func BenchmarkAblationDummyRate(b *testing.B) {
	for _, lambda := range []float64{0.5, 1, 2, 4} {
		lambda := lambda
		b.Run(fmt.Sprintf("lambda=%g", lambda), func(b *testing.B) {
			dev := mobiceal.NewMemDevice(benchBlockSize, 32768)
			sys, err := mobiceal.Setup(dev, mobiceal.Config{
				NumVolumes: 8,
				Lambda:     lambda,
				KDFIter:    8,
				Entropy:    prng.NewSeededEntropy(2),
				Seed:       2,
				SeedSet:    true,
			}, "decoy", nil)
			if err != nil {
				b.Fatal(err)
			}
			vol, err := sys.OpenPublic("decoy")
			if err != nil {
				b.Fatal(err)
			}
			fs, err := vol.Format()
			if err != nil {
				b.Fatal(err)
			}
			f, err := fs.Create("bench.bin")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, benchBlockSize)
			span := int64(32) << 20
			b.SetBytes(benchBlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * benchBlockSize) % span
				if _, err := f.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pubMapped, err := sys.Pool().MappedBlocks(1)
			if err != nil {
				b.Fatal(err)
			}
			if pubMapped > 0 {
				amp := float64(sys.Pool().DummyBlocksWritten()) / float64(pubMapped)
				b.ReportMetric(amp, "dummy_per_public_block")
			}
		})
	}
}

// BenchmarkGC measures one garbage-collection pass over a device with
// accumulated dummy space (Sec. IV-D).
func BenchmarkGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := mobiceal.NewMemDevice(benchBlockSize, 8192)
		sys, err := mobiceal.Setup(dev, mobiceal.Config{
			NumVolumes: 8,
			KDFIter:    8,
			Entropy:    prng.NewSeededEntropy(uint64(i)),
			Seed:       uint64(i),
			SeedSet:    true,
		}, "decoy", []string{"hidden"})
		if err != nil {
			b.Fatal(err)
		}
		vol, err := sys.OpenPublic("decoy")
		if err != nil {
			b.Fatal(err)
		}
		fs, err := vol.Format()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.SeqWrite(fs, "traffic", 4<<20, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
		hid, err := sys.OpenHidden("hidden")
		if err != nil {
			b.Fatal(err)
		}
		src := prng.NewSource(uint64(i))
		b.StartTimer()
		if _, err := sys.GC([]int{hid.ID()}, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmallFileCreate measures the metadata-heavy Bonnie++ create
// phase on the MC-P stack versus stock thin provisioning, the worst case
// for dummy writes (every block is a fresh allocation). Each op is a
// create+remove churn cycle so inodes and space are reusable at any b.N.
func BenchmarkSmallFileCreate(b *testing.B) {
	for _, name := range []string{"A-T-P", "MC-P"} {
		name := name
		b.Run(name, func(b *testing.B) {
			st, err := experiments.NewStack(name, experiments.Fig4Config{FileMB: 16, Seed: 5})
			if err != nil {
				b.Fatal(err)
			}
			const fileSize = 8 * 1024
			b.SetBytes(fileSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prefix := fmt.Sprintf("b%d-", i)
				if _, err := workload.SmallFiles(st.FS, prefix, 1, fileSize, uint64(i)); err != nil {
					b.Fatal(err)
				}
				if err := st.FS.Remove(prefix + "0000"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThinRangeWrite compares the vectored thin-volume write path
// (one pool-lock acquisition + coalesced data-device calls per 64 KB
// request) against the equivalent block-at-a-time loop, under both the
// stock sequential allocator (physically contiguous, maximal coalescing)
// and MobiCeal's random allocator (scattered extents, the win is the
// single lock + single mapping resolution).
func BenchmarkThinRangeWrite(b *testing.B) {
	const chunkBlocks = 16
	for _, alloc := range []string{"sequential", "random"} {
		alloc := alloc
		mkPool := func(b *testing.B) *thinp.Thin {
			b.Helper()
			var a thinp.Allocator
			if alloc == "random" {
				a = thinp.NewRandomAllocator(prng.NewSource(1))
			} else {
				a = thinp.NewSequentialAllocator()
			}
			data := storage.NewMemDevice(benchBlockSize, 16384)
			meta := storage.NewMemDevice(benchBlockSize, thinp.MetaBlocksNeeded(16384, benchBlockSize))
			pool, err := thinp.CreatePool(data, meta, thinp.Options{
				Allocator: a,
				Entropy:   prng.NewSeededEntropy(1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.CreateThin(1, 16384); err != nil {
				b.Fatal(err)
			}
			thin, err := pool.Thin(1)
			if err != nil {
				b.Fatal(err)
			}
			return thin
		}
		chunk := make([]byte, chunkBlocks*benchBlockSize)
		span := uint64(8192)
		b.Run(alloc+"/vectored", func(b *testing.B) {
			thin := mkPool(b)
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := (uint64(i) * chunkBlocks) % span
				if err := storage.WriteBlocks(thin, start, chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(alloc+"/blockwise", func(b *testing.B) {
			thin := mkPool(b)
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := (uint64(i) * chunkBlocks) % span
				for j := uint64(0); j < chunkBlocks; j++ {
					if err := thin.WriteBlock(start+j, chunk[j*benchBlockSize:(j+1)*benchBlockSize]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCryptRange compares the vectored dm-crypt path (reusable
// scratch, one inner call per request) against per-block encryption.
func BenchmarkCryptRange(b *testing.B) {
	key := make([]byte, 64)
	for i := range key {
		key[i] = byte(i)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		b.Fatal(err)
	}
	const chunkBlocks = 16
	chunk := make([]byte, chunkBlocks*benchBlockSize)
	span := uint64(4096)
	b.Run("vectored", func(b *testing.B) {
		c := dm.NewCrypt(storage.NewMemDevice(benchBlockSize, span), cipher)
		b.SetBytes(int64(len(chunk)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := (uint64(i) * chunkBlocks) % span
			if err := storage.WriteBlocks(c, start, chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blockwise", func(b *testing.B) {
		c := dm.NewCrypt(storage.NewMemDevice(benchBlockSize, span), cipher)
		b.SetBytes(int64(len(chunk)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := (uint64(i) * chunkBlocks) % span
			for j := uint64(0); j < chunkBlocks; j++ {
				if err := c.WriteBlock(start+j, chunk[j*benchBlockSize:(j+1)*benchBlockSize]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCommitIncremental measures metadata commit cost on pools of
// increasing mapped size when only a single block changed between commits.
// The incremental path should stay flat as the mapped count grows while
// the full rewrite scales with it. incremental and full remap one block in
// place (a pure patch); insert maps a fresh vblock at a random position
// among the mapped ones, the suffix splice mem_commit_4k runs, whose
// shifted blocks each commit re-hashes.
func BenchmarkCommitIncremental(b *testing.B) {
	for _, mapped := range []uint64{1000, 10000, 40000} {
		mapped := mapped
		// setup maps mapped vblocks stride apart, leaving stride-1 holes
		// after each.
		setup := func(b *testing.B, stride uint64) (*thinp.Pool, *thinp.Thin) {
			b.Helper()
			dataBlocks := mapped + 8192
			data := storage.NewMemDevice(benchBlockSize, dataBlocks)
			meta := storage.NewMemDevice(benchBlockSize, thinp.MetaBlocksNeeded(dataBlocks, benchBlockSize))
			pool, err := thinp.CreatePool(data, meta, thinp.Options{Entropy: prng.NewSeededEntropy(1)})
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.CreateThin(1, 2*dataBlocks); err != nil {
				b.Fatal(err)
			}
			thin, err := pool.Thin(1)
			if err != nil {
				b.Fatal(err)
			}
			if stride == 1 {
				err = storage.WriteBlocks(thin, 0, make([]byte, mapped*uint64(benchBlockSize)))
			} else {
				for vb := uint64(0); vb < stride*mapped && err == nil; vb += stride {
					err = storage.WriteBlocks(thin, vb, make([]byte, benchBlockSize))
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.Commit(); err != nil {
				b.Fatal(err)
			}
			return pool, thin
		}
		one := make([]byte, benchBlockSize)
		// Each op remaps exactly one virtual block (discard + rewrite) so
		// every commit has a one-mapping delta to persist.
		mutate := func(b *testing.B, thin *thinp.Thin, i int) {
			b.Helper()
			vb := mapped + uint64(i)%4096
			if err := thin.Discard(vb); err != nil {
				b.Fatal(err)
			}
			if err := storage.WriteBlocks(thin, vb, one); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("mapped=%d/incremental", mapped), func(b *testing.B) {
			pool, thin := setup(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mutate(b, thin, i)
				if err := pool.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mapped=%d/full", mapped), func(b *testing.B) {
			pool, thin := setup(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mutate(b, thin, i)
				if err := pool.CommitFull(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mapped=%d/insert", mapped), func(b *testing.B) {
			pool, thin := setup(b, 2)
			rng := rand.New(rand.NewSource(1))
			// holes are the odd vblocks still to fill this round; a round
			// ends, untimed, by discarding what it filled, so the pool
			// never outgrows its 8192 spare blocks.
			var holes, filled []uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(holes) == 0 {
					b.StopTimer()
					for _, vb := range filled {
						if err := thin.Discard(vb); err != nil {
							b.Fatal(err)
						}
					}
					if err := pool.Commit(); err != nil {
						b.Fatal(err)
					}
					filled = filled[:0]
					for _, k := range rng.Perm(int(mapped))[:min(mapped, 4096)] {
						holes = append(holes, 2*uint64(k)+1)
					}
					b.StartTimer()
				}
				vb := holes[len(holes)-1]
				holes = holes[:len(holes)-1]
				filled = append(filled, vb)
				if err := storage.WriteBlocks(thin, vb, one); err != nil {
					b.Fatal(err)
				}
				if err := pool.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotDiff measures the adversary's correlation primitive on a
// populated device.
func BenchmarkSnapshotDiff(b *testing.B) {
	dev := storage.NewMemDevice(benchBlockSize, 8192)
	sys, err := mobiceal.Setup(dev, mobiceal.Config{
		NumVolumes: 8,
		KDFIter:    8,
		Entropy:    prng.NewSeededEntropy(3),
		Seed:       3,
		SeedSet:    true,
	}, "decoy", nil)
	if err != nil {
		b.Fatal(err)
	}
	vol, err := sys.OpenPublic("decoy")
	if err != nil {
		b.Fatal(err)
	}
	fs, err := vol.Format()
	if err != nil {
		b.Fatal(err)
	}
	s1 := dev.Snapshot()
	if _, err := workload.SeqWrite(fs, "x", 4<<20, 0, 4); err != nil {
		b.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		b.Fatal(err)
	}
	s2 := dev.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mobiceal.AnalyzeSnapshots(dev, s1, s2); err != nil {
			b.Fatal(err)
		}
	}
}
