package main

import (
	"fmt"

	"mobiceal"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// sideChecks runs the workload's own correctness replica on a small side
// system, outside any timed window: the power-cut replica for the commit
// workload, the multi-snapshot adversary for the fresh-write workload. It
// returns the ops attempted and failed; err reports a failed verdict.
func sideChecks(o options) (attempted, failed uint64, err error) {
	switch o.w.kind {
	case opCommit:
		n := 2000
		if o.short {
			n = 200
		}
		return powerCutReplica(o.seed, n)
	case opFresh:
		return adversaryCheck(o.seed)
	}
	return 0, 0, nil
}

// writePattern writes generation 1 of blocks [start, start+len(buf)/bs).
func writePattern(vol *mobiceal.Volume, seed, start uint64, buf []byte) error {
	for i := 0; i*blockSize < len(buf); i++ {
		fillBlock(buf[i*blockSize:(i+1)*blockSize], blockTag(seed, start+uint64(i), 1))
	}
	return vol.SubmitWrite(start, buf).Wait()
}

// powerCutReplica replays the commit workload — first write of one block,
// then Flush — on a device with a volatile write cache, cuts the power
// with everything unflushed lost, and requires every write whose Flush was
// acknowledged to read back after recovery.
func powerCutReplica(seed uint64, n int) (attempted, failed uint64, err error) {
	crash := storage.NewCrashDevice(mobiceal.NewMemDevice(blockSize, 8192))
	cfg := mobiceal.Config{Seed: seed, SeedSet: true}
	sys, err := mobiceal.Setup(crash, cfg, decoyPassword, []string{hiddenPassword})
	if err != nil {
		return 0, 0, fmt.Errorf("power-cut replica: setup: %w", err)
	}
	vol, err := sys.OpenPublic(decoyPassword)
	if err != nil {
		return 0, 0, fmt.Errorf("power-cut replica: %w", err)
	}
	order := prng.NewSource(seed ^ 0x637574).Perm(4096)[:n]
	buf := mobiceal.AlignedBuf(blockSize)
	var acked []uint64
	for _, b := range order {
		attempted++
		err := writePattern(vol, seed, uint64(b), buf)
		if err == nil {
			err = vol.Flush().Wait()
		}
		if err != nil {
			failed++
			continue
		}
		acked = append(acked, uint64(b))
	}
	crash.PowerCutDropAll()
	_ = sys.Scheduler().Close() // stops the workers; the system itself died with the power
	crash.Restart()

	sys, err = mobiceal.Open(crash, cfg)
	if err != nil {
		return attempted, failed, fmt.Errorf("power-cut replica: open after power cut: %w", err)
	}
	defer sys.Close()
	if vol, err = sys.OpenPublic(decoyPassword); err != nil {
		return attempted, failed, fmt.Errorf("power-cut replica: %w", err)
	}
	lost := 0
	for _, b := range acked {
		attempted++
		err := vol.SubmitRead(b, buf).Wait()
		if err != nil || !checkBlock(buf, blockTag(seed, b, 1), true) {
			failed++
			lost++
		}
	}
	if lost > 0 {
		return attempted, failed, fmt.Errorf("power-cut replica: %d of %d acknowledged writes did not survive", lost, len(acked))
	}
	return attempted, failed, nil
}

// adversaryCheck is the paper's security claim as a benchmark gate: image
// the device, make public fresh writes and hidden-volume writes, image it
// again, and require the multi-snapshot adversary to find nothing it
// cannot account for. A speed-up that breaks deniability fails here.
func adversaryCheck(seed uint64) (attempted, failed uint64, err error) {
	dev := mobiceal.NewMemDevice(blockSize, 16384)
	sys, err := mobiceal.Setup(dev, mobiceal.Config{Seed: seed, SeedSet: true}, decoyPassword, []string{hiddenPassword})
	if err != nil {
		return 0, 0, fmt.Errorf("adversary check: setup: %w", err)
	}
	defer sys.Close()
	pub, err := sys.OpenPublic(decoyPassword)
	if err != nil {
		return 0, 0, fmt.Errorf("adversary check: %w", err)
	}
	hid, err := sys.OpenHidden(hiddenPassword)
	if err != nil {
		return 0, 0, fmt.Errorf("adversary check: %w", err)
	}
	before := dev.Snapshot()
	const req = 8 // blocks, as the workload writes
	buf := mobiceal.AlignedBuf(req * blockSize)
	for i := uint64(0); i < 320; i++ {
		vol, start := pub, i*req
		if i%5 == 4 { // every fifth request is hidden data
			vol, start = hid, i/5*req
		}
		attempted++
		if err := writePattern(vol, seed, start, buf); err != nil {
			failed++
		}
	}
	if err := sys.FlushAll(); err != nil {
		return attempted, failed, fmt.Errorf("adversary check: %w", err)
	}
	rep, err := mobiceal.AnalyzeSnapshots(dev, before, dev.Snapshot())
	if err != nil {
		return attempted, failed, fmt.Errorf("adversary check: %w", err)
	}
	if rep.Changed == 0 || len(rep.Unaccountable) != 0 || rep.NonRandomChanged > nonRandomSlack {
		return attempted, failed, fmt.Errorf("adversary check: %d blocks changed, %d unaccountable, %d non-random: hidden writes are not deniable",
			rep.Changed, len(rep.Unaccountable), rep.NonRandomChanged)
	}
	return attempted, failed, nil
}

// nonRandomSlack is how many changed blocks may fail the adversary's
// randomness test before the verdict counts. The test is statistical: it
// rejects 4.9 in a million truly random 4 KiB blocks (measured over 2^20
// blocks; the chi-square tail is heavier than the "5 sigma" in its name).
// With ~3 100 changed blocks and fresh keys every run, one run in 60 should
// see one false rejection (2 of 60 runs did), one in 8 000 two, one in a
// million three. A real plaintext leak fails the test on every block it
// writes, hundreds here.
const nonRandomSlack = 2
