// Concurrent volume service: many goroutines hammer the public volume and
// a hidden volume at once through the asynchronous submission API, with
// commit-per-flush durability — and the group-commit door folds the
// concurrent flushes into far fewer metadata slot flips than callers.
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"mobiceal"
)

const (
	blockSize = 4096
	writers   = 6 // goroutines per volume
	rounds    = 40
	reqBlocks = 4
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dev := mobiceal.NewMemDevice(blockSize, 16384) // 64 MiB
	sys, err := mobiceal.Setup(dev, mobiceal.Config{NumVolumes: 8},
		"decoy-password", []string{"hidden-password"})
	if err != nil {
		return err
	}

	pub, err := sys.OpenPublic("decoy-password")
	if err != nil {
		return err
	}
	hid, err := sys.OpenHidden("hidden-password")
	if err != nil {
		return err
	}

	before := dev.Snapshot() // the adversary's first capture

	// Serve both volumes from many goroutines. Each worker owns a
	// disjoint block region of its volume, writes random payloads
	// asynchronously, reads a previous payload back, and flushes for
	// durability every few rounds — the access pattern of a multi-user
	// service, which on a phone is many apps hitting storage at once.
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var flushes, writes int
	for _, vol := range []*mobiceal.Volume{pub, hid} {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(vol *mobiceal.Volume, w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)<<8 | int64(vol.ID())))
				base := uint64(w * 256)
				payload := make([]byte, reqBlocks*blockSize)
				for r := 0; r < rounds; r++ {
					rng.Read(payload)
					off := base + uint64(rng.Intn(256-reqBlocks))
					if err := vol.SubmitWrite(off, payload).Wait(); err != nil {
						log.Printf("write: %v", err)
						return
					}
					if r%4 == 3 {
						// Durability point: everything this worker wrote
						// so far must survive a power cut.
						if err := vol.Flush().Wait(); err != nil {
							log.Printf("flush: %v", err)
							return
						}
						mu.Lock()
						flushes++
						mu.Unlock()
					}
					readBack := make([]byte, reqBlocks*blockSize)
					if err := vol.SubmitRead(off, readBack).Wait(); err != nil {
						log.Printf("read: %v", err)
						return
					}
					mu.Lock()
					writes++
					mu.Unlock()
				}
			}(vol, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := sys.Close(); err != nil {
		return err
	}

	pm := sys.Pool().MetricsSnapshot()
	fmt.Printf("served %d volumes × %d writers: %d writes, %d flushes in %v\n",
		2, writers, writes, flushes, elapsed.Round(time.Millisecond))
	fmt.Printf("group commit: %d commit calls, %d slot flips (%.1f commits/flip; the fold grows with flush concurrency and real device sync latency)\n",
		pm.CommitCalls, pm.CommitFlips, pm.FoldRatio())

	// The deniability story is unchanged by concurrency: the multi-
	// snapshot adversary diffs its captures and finds only accountable,
	// random-looking changes.
	after := dev.Snapshot()
	report, err := mobiceal.AnalyzeSnapshots(dev, before, after)
	if err != nil {
		return err
	}
	fmt.Printf("adversary diff: %d changed data blocks, unaccountable: %d, non-random: %d\n",
		report.Changed, len(report.Unaccountable), report.NonRandomChanged)
	if len(report.Unaccountable) > 0 || report.NonRandomChanged > 0 {
		return fmt.Errorf("deniability violated")
	}
	fmt.Println("every change is accountable to the public volume or deniable noise — the hidden writes left no trace")
	return nil
}
