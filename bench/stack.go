package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mobiceal"
	"mobiceal/internal/core"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// backend is the bare device under a system: a MemDevice, or an O_DIRECT
// image file that is removed again on close.
type backend struct {
	dev  storage.Device
	path string
}

// newBackend builds the workload's device, written end to end before
// anything is set up on it, because a steady-state device has no block
// left to materialise: a MemDevice allocates (and page-faults) a slab on
// the first write into it, and ext4 serialises direct writes into sparse
// extents on the inode lock.
func newBackend(w *workload, dir string) (*backend, error) {
	b := &backend{dev: mobiceal.NewMemDevice(blockSize, devBlocks)}
	if w.direct {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("creating image directory: %w", err)
		}
		f, err := os.CreateTemp(dir, w.name+"-*.img")
		if err != nil {
			return nil, fmt.Errorf("creating image: %w", err)
		}
		b.path = f.Name()
		_ = f.Close() // CreateImageWith reopens the path; nothing was written
		b.dev, err = mobiceal.CreateImageWith(b.path, blockSize, devBlocks, mobiceal.FileOptions{Direct: true})
		if err != nil {
			_ = os.Remove(b.path)
			if errors.Is(err, mobiceal.ErrDirectUnsupported) {
				abs, _ := filepath.Abs(dir)
				return nil, fmt.Errorf("workload %s needs O_DIRECT, which the file system under %s refuses "+
					"(tmpfs does); point -dir at a disk-backed directory: %w", w.name, abs, err)
			}
			return nil, err
		}
	}
	const chunk = 256 // blocks per prefill write (1 MiB)
	fill := mobiceal.AlignedBuf(chunk * blockSize)
	for at := uint64(0); at < devBlocks; at += chunk {
		if err := storage.WriteBlocks(b.dev, at, fill); err != nil {
			b.close()
			return nil, fmt.Errorf("prefilling device: %w", err)
		}
	}
	if err := b.dev.Sync(); err != nil {
		b.close()
		return nil, fmt.Errorf("syncing device: %w", err)
	}
	return b, nil
}

func (b *backend) close() {
	_ = b.dev.Close() // the image is deleted next; nothing to keep durable
	if b.path != "" {
		_ = os.Remove(b.path)
	}
}

// stack is one set-up system with its load generators: Setup with the zero
// Config (apart from the seed) and one hidden password, the public volume
// open, the working set prefilled where the workload reads or overwrites.
type stack struct {
	w       *workload
	seed    uint64
	dev     storage.Device // what Setup was handed: bare, shimmed or test-wrapped
	sys     *mobiceal.System
	vol     *mobiceal.Volume
	clients []*client

	setupDur time.Duration // mobiceal.Setup alone
	openDur  time.Duration // Open + OpenPublic of the last reopen

	// Space accounting over every fill of the working set: blocks the
	// pool allocated while it filled, and user blocks mapped by it.
	// allocBase is what was allocated when the current fill began.
	allocBase, fillAllocated, fillMapped uint64

	rec        recycleStats
	allocAfter []uint64 // blocks still allocated after each recycle
}

// recycleStats accumulates over a recycling workload's recycles.
type recycleStats struct {
	n                  int
	dur                time.Duration
	reclaimed, scanned uint64 // GC's dummy blocks
	err                error  // the first failure
}

func (s *stack) config() mobiceal.Config {
	return mobiceal.Config{Seed: s.seed, SeedSet: true}
}

// newStack sets a system up on dev and readies nClients load generators.
func newStack(w *workload, seed uint64, dev storage.Device, nClients int) (*stack, error) {
	s := &stack{w: w, seed: seed, dev: dev}
	t0 := time.Now()
	sys, err := mobiceal.Setup(dev, s.config(), decoyPassword, []string{hiddenPassword})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	s.setupDur = time.Since(t0)
	s.sys = sys
	if s.vol, err = sys.OpenPublic(decoyPassword); err != nil {
		return nil, fmt.Errorf("opening public volume: %w", err)
	}
	s.allocBase = sys.Telemetry().AllocatedBlocks
	per := w.setBlocks / uint64(nClients)
	for i := 0; i < nClients; i++ {
		s.clients = append(s.clients, newClient(w, seed, i, uint64(i)*per, per))
	}
	if !w.cycles() {
		if err := s.prefill(); err != nil {
			return nil, err
		}
		s.noteFill()
	}
	return s, nil
}

// prefill writes generation 1 of every working-set block through the
// public async path, each client filling its own slice.
func (s *stack) prefill() error {
	const chunk = 64 // blocks per prefill request
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := mobiceal.AlignedBuf(chunk * blockSize)
			for at := 0; at < len(c.gen); at += chunk {
				for i := 0; i < chunk; i++ {
					c.gen[at+i] = 1
					fillBlock(buf[i*blockSize:(i+1)*blockSize], blockTag(s.seed, c.base+uint64(at+i), 1))
				}
				if err := s.vol.SubmitWrite(c.base+uint64(at), buf).Wait(); err != nil {
					errs[ci] = fmt.Errorf("prefilling working set: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// noteFill adds the fill that just ended (or, at the end of a run, the one
// in progress) to the space accounting.
func (s *stack) noteFill() {
	mapped, _ := s.sys.Pool().MappedBlocks(core.PublicVolumeID) // the public thin always exists
	s.fillAllocated += s.sys.Telemetry().AllocatedBlocks - s.allocBase
	s.fillMapped += mapped
}

// gcSeed seeds the source each GC pass draws its reclaim share from, offset
// by the pass number. GC(…, nil) would re-seed alike on every call and
// redraw one share for ever. One source for the whole run would not repeat
// from run to run either, because GC also shuffles with it and so consumes
// a different amount each pass. How full the pool runs follows from the
// sequence of shares, and that belongs to the workload, not to its noise.
const gcSeed = 0x6763

// recycle empties the working set so a cycle workload can fill it again:
// discard the set, GC a random share of the dummy blocks, FlushAll. The
// hidden volume holds nothing beyond its verifier, so it is not protected:
// dummy blocks landing in a protected volume are never reclaimed and would
// exhaust the pool after ~110 cycles.
func (s *stack) recycle() {
	t0 := time.Now()
	s.noteFill()
	err := s.vol.SubmitDiscard(0, s.w.setBlocks).Wait()
	if err == nil {
		var rep mobiceal.GCReport
		rep, err = s.sys.GC(nil, prng.NewSource(gcSeed+uint64(s.rec.n)))
		s.rec.reclaimed += rep.Reclaimed
		s.rec.scanned += rep.Scanned
	}
	if err == nil {
		err = s.sys.FlushAll()
	}
	if err != nil && s.rec.err == nil {
		s.rec.err = fmt.Errorf("recycle %d: %w", s.rec.n, err)
	}
	s.allocBase = s.sys.Telemetry().AllocatedBlocks
	s.allocAfter = append(s.allocAfter, s.allocBase)
	s.rec.n++
	s.rec.dur += time.Since(t0)
}

// reopen closes the system and opens it again from the same device, the
// way a reboot would, timing Open + OpenPublic.
func (s *stack) reopen() error {
	if err := s.sys.Close(); err != nil {
		return fmt.Errorf("closing system: %w", err)
	}
	t0 := time.Now()
	sys, err := mobiceal.Open(s.dev, s.config())
	if err != nil {
		return fmt.Errorf("reopening system: %w", err)
	}
	s.sys = sys
	if s.vol, err = sys.OpenPublic(decoyPassword); err != nil {
		return fmt.Errorf("reopening public volume: %w", err)
	}
	s.openDur = time.Since(t0)
	return nil
}

// topUp writes, untimed, until every client of a cycle workload has at
// least need blocks mapped in its current cycle, so the read-back sample
// after a reopen never comes up short.
func (s *stack) topUp(need int) {
	for _, c := range s.clients {
		for c.order != nil && !c.full() && c.pos*s.w.reqBlocks < need {
			c.step(volTarget{s.vol}, false)
		}
	}
}

// verifySample reads n seeded blocks of the working set back one at a time
// and checks every word against the generation last written. It returns
// the reads attempted and failed.
func (s *stack) verifySample(n int) (attempted, failed uint64, firstErr error) {
	rng := prng.NewSource(s.seed ^ 0x7665726966)
	buf := mobiceal.AlignedBuf(blockSize)
	for i := 0; i < n; i++ {
		c := s.clients[i%len(s.clients)]
		var rel uint64
		if c.order != nil {
			if c.pos == 0 {
				continue // nothing mapped in this client's current cycle
			}
			slot := uint64(c.order[rng.Intn(c.pos)])
			rel = slot*uint64(s.w.reqBlocks) + rng.Uint64n(uint64(s.w.reqBlocks))
		} else {
			rel = rng.Uint64n(uint64(len(c.gen)))
		}
		block := c.base + rel
		attempted++
		err := s.vol.SubmitRead(block, buf).Wait()
		if err == nil && !checkBlock(buf, blockTag(s.seed, block, c.gen[rel]), true) {
			err = fmt.Errorf("block %d does not read back at generation %d after reopen", block, c.gen[rel])
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return attempted, failed, firstErr
}

// allocTrend reports an error when the blocks still allocated after each
// recycle grow over the run: a least-squares line through them that gains
// more than half a working set means blocks are leaking, not fluctuating
// with GC's random reclaim share.
func (s *stack) allocTrend() error {
	n := float64(len(s.allocAfter))
	if n < 16 {
		return nil
	}
	var sx, sy, sxx, sxy float64
	for i, a := range s.allocAfter {
		x, y := float64(i), float64(a)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if growth := slope * n; growth > float64(s.w.setBlocks)/2 {
		return fmt.Errorf("allocated blocks after recycle trend upward: +%.0f blocks over %d cycles (first %d, last %d)",
			growth, len(s.allocAfter), s.allocAfter[0], s.allocAfter[len(s.allocAfter)-1])
	}
	return nil
}
