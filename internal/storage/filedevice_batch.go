package storage

import (
	"sync"
	"sync/atomic"
)

// batchOp is one extent of a native batch as the submission backend sees
// it: where in the file, which memory, and — filled in by the backend —
// what the kernel said about it.
type batchOp struct {
	off int64    // byte offset in the image
	vec BlockVec // the extent's segments, in order

	n   int   // out: bytes moved
	err error // out: the completion's error; n is 0 when it is set
}

// batchIO puts extents in flight together and waits for all of them. It is
// the seam between FileDevice's batch logic (what may be batched, what a
// completion means, accounting) and the platform: Linux installs an
// io_uring, other platforms nothing, and tests a scripted fake — the
// vectorIO pattern, one level up.
type batchIO interface {
	// entries is the most ops one submit call takes.
	entries() int
	// submit issues every op as one submission and returns when each has
	// completed, successfully or not, with n and err filled in exactly as
	// the kernel reported them — no retry, no loop hiding a short count.
	// Once it returns, the backend and the kernel hold no reference to
	// any op's memory. It reports how many syscalls carried submissions.
	submit(write bool, ops []batchOp) (syscalls int)
	// close releases the backend.
	close()
}

// maxIdleRings bounds the rings a device keeps between batches. A ring is
// checked out for the length of one batch, so the device holds as many as
// it has had batches in flight at once — the scheduler's worker count at
// most; this only caps what an unusual burst leaves behind.
const maxIdleRings = 8

// ringPool is a FileDevice's free list of submission rings: grown lazily,
// one ring per batch in flight. The first ring is set up by the first
// batch; a kernel that refuses it (ENOSYS, EPERM under seccomp or
// io_uring_disabled, ENOMEM against RLIMIT_MEMLOCK) turns the pool off for
// good and the device serves every batch serially.
type ringPool struct {
	// open sets up one more ring over the image's descriptor; nil where
	// the platform has none.
	open func(fd int) (batchIO, error)

	mu      sync.Mutex
	free    []*ringSlot
	refused bool
	// live is set once a ring has been set up (FileSyscalls.Ring).
	live atomic.Bool
}

// ringSlot is a ring plus the op slab its batches are staged in, so a
// steady-state batch allocates nothing.
type ringSlot struct {
	io  batchIO
	ops []batchOp
}

// get checks a ring out, setting one up when the free list is empty. It
// returns nil when the device has no ring to give.
func (p *ringPool) get(fd int) *ringSlot {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	refused := p.refused
	p.mu.Unlock()
	if refused || p.open == nil {
		return nil
	}
	io, err := p.open(fd)
	if err != nil {
		if !p.live.Load() {
			p.mu.Lock()
			p.refused = true
			p.mu.Unlock()
		}
		return nil
	}
	p.live.Store(true)
	return &ringSlot{io: io, ops: make([]batchOp, io.entries())}
}

// put returns a ring whose batch has completed.
func (p *ringPool) put(s *ringSlot) {
	p.mu.Lock()
	if len(p.free) < maxIdleRings {
		p.free = append(p.free, s)
		s = nil
	}
	p.mu.Unlock()
	if s != nil {
		s.io.close()
	}
}

// closeAll releases every idle ring. The device calls it from Close, under
// its exclusive lock, when no ring is checked out.
func (p *ringPool) closeAll() {
	p.mu.Lock()
	for _, s := range p.free {
		s.io.close()
	}
	p.free = nil
	p.mu.Unlock()
}

// batchable reports whether the device batches at all (direct mode) and
// every request can go to the ring as it is: a transfer of the call's one
// kind, non-empty, inside the device and aligned. Anything else has an
// error or a bounce copy coming that the serial path already knows how to
// produce.
//
// Only a direct-mode device batches. Measured on the raw image (2 clients
// x 8 scattered 4 KiB blocks per op): O_DIRECT reads go from 92 MB/s
// serial to 527 MB/s batched and writes from 115 to 427, because each
// extent is a device round trip the others can hide behind. On a buffered
// image there is no round trip to hide: a cached read is a memcpy (batched
// +26 %, of a share of the op that is already small), and a buffered write
// cannot be issued without blocking, so the kernel hands every one to a
// worker thread — 689 MB/s serial falls to 348 batched.
func (d *FileDevice) batchable(reqs []Req) bool {
	if !d.direct || (reqs[0].Op != OpRead && reqs[0].Op != OpWrite) {
		return false
	}
	for i := range reqs {
		v := reqs[i].Vec
		if reqs[i].Op != reqs[0].Op || v.seg0 == nil ||
			checkVecIO(reqs[i].Start, v, d.blockSize, d.numBlocks) != nil {
			return false
		}
		for s, n := 0, v.Segments(); s < n; s++ {
			if !IsAligned(v.Seg(s), DirectAlign) {
				return false
			}
		}
	}
	return true
}

// runBatch is Do's native path: every request becomes one readv/writev
// submission-queue entry on slot's ring — at most a ring's worth at a time
// — and the whole batch one ring submission, so the extents the random
// allocator scattered are in flight on the device together instead of one
// after another. The completions become each request's Done and Err, held
// to the same standard as the syscall path: a short count, -EINTR or
// -EAGAIN finishes that one extent through the ordinary transfer loop from
// where the kernel stopped; any other negative result is that request's
// error, with the others unaffected. A failure stops the batch at the end
// of the submission it occurred in; requests in later submissions are left
// unattempted. Caller holds d.mu shared.
func (d *FileDevice) runBatch(slot *ringSlot, reqs []Req) error {
	write := reqs[0].Op == OpWrite
	calls, segCount := &d.sysc.preadvCalls, &d.sysc.readSegs
	if write {
		calls, segCount = &d.sysc.pwritevCalls, &d.sysc.writeSegs
	}
	d.sysc.batchCalls.Inc()
	d.sysc.batchReqs.Add(uint64(len(reqs)))
	for i := range reqs {
		reqs[i].Done, reqs[i].Err = 0, nil
	}
	var first error
	for len(reqs) > 0 && first == nil {
		chunk := reqs[:min(len(reqs), len(slot.ops))]
		reqs = reqs[len(chunk):]
		ops := slot.ops[:len(chunk)]
		segs := 0
		for i := range chunk {
			ops[i] = batchOp{off: int64(chunk[i].Start) * int64(d.blockSize), vec: chunk[i].Vec}
			segs += chunk[i].Vec.Segments()
		}
		calls.Add(uint64(slot.io.submit(write, ops)))
		segCount.Add(uint64(segs))
		for i := range chunk {
			r := &chunk[i]
			if err := d.finishOp(write, r, &ops[i]); err != nil {
				r.Done, r.Err = partialDone(err), err
				if first == nil {
					first = err
				}
				continue
			}
			r.Done = r.Vec.Len()
		}
		clear(ops) // the slab must not pin the callers' buffers
	}
	return first
}

// finishOp turns one completion into the request's outcome, finishing a
// short or interrupted extent through the ordinary transfer loop.
func (d *FileDevice) finishOp(write bool, r *Req, op *batchOp) error {
	var err error
	switch {
	case op.err == nil && op.n == r.Vec.Bytes():
		return nil
	case op.err == nil:
		d.sysc.shortTransfers.Inc()
		err = d.resumeTransfer(write, op.off, vecSegs(r.Vec), op.n)
	case isEINTR(op.err) || isEAGAIN(op.err):
		d.sysc.eintrRetries.Inc()
		err = d.resumeTransfer(write, op.off, vecSegs(r.Vec), 0)
	default:
		err = op.err
	}
	if err == nil {
		return nil
	}
	return transferFailed(r, err)
}
