package thinp

import (
	"errors"
	"fmt"
	"sync"

	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
)

// Thin is the block-device view of one thin volume. Reads of unprovisioned
// blocks return zeros; the first write to a block provisions physical space
// through the pool allocator (and, under MobiCeal's policy, may trigger a
// dummy write); an overwrite of a mapped block stays in place, as in stock
// dm-thin. Thin is safe for concurrent use; it shares the pool's shared
// lock plus its own thin lock, so writers to different thins do not
// contend on metadata resolution, and on allocation only for the few
// hundred nanoseconds the pool's allocation mutex is held.
type Thin struct {
	pool *Pool
	id   int
}

// ID returns the thin device id.
func (t *Thin) ID() int { return t.id }

// BlockSize implements storage.Device.
func (t *Thin) BlockSize() int { return t.pool.blockSize }

// NumBlocks implements storage.Device.
func (t *Thin) NumBlocks() uint64 {
	t.pool.mu.RLock()
	defer t.pool.mu.RUnlock()
	tm, ok := t.pool.thins[t.id]
	if !ok {
		return 0
	}
	return tm.virtBlocks
}

// ReadBlock implements storage.Device.
func (t *Thin) ReadBlock(idx uint64, dst []byte) error {
	return storage.DoBlock(t, storage.OpRead, idx, dst)
}

// WriteBlock implements storage.Device.
func (t *Thin) WriteBlock(idx uint64, src []byte) error {
	return storage.DoBlock(t, storage.OpWrite, idx, src)
}

// Sync implements storage.Device.
func (t *Thin) Sync() error { return storage.Sync(t) }

// Discard unmaps virtual block idx, freeing its physical block (the TRIM
// analogue the garbage collector uses to reclaim dummy space).
func (t *Thin) Discard(idx uint64) error { return storage.Discard(t, idx, 1) }

// Do implements storage.Doer, one request at a time: each request takes
// the pool and thin locks once, resolves its whole range, and sends the
// extents the random allocator scattered it over to the data device as ONE
// batch under the request's flight id.
func (t *Thin) Do(reqs []storage.Req) error {
	return storage.Each(reqs, func(one []storage.Req) error {
		r := &one[0]
		switch r.Op {
		case storage.OpRead:
			return t.read(r)
		case storage.OpWrite:
			return t.write(r)
		case storage.OpDiscard:
			return t.discard(r.Start, r.Count)
		case storage.OpSync:
			return t.sync(one)
		default:
			return fmt.Errorf("thinp: unknown request op %d", r.Op)
		}
	})
}

// ioBatch is a pooled request list for the data device. The list reaches
// the device through an interface call, so a stack-backed one would be
// moved to the heap on every request; pooling keeps the I/O paths at the
// allocation count they had when they called the device per extent.
type ioBatch struct {
	reqs []storage.Req
}

var batchPool = sync.Pool{New: func() any {
	return &ioBatch{reqs: make([]storage.Req, 0, 16)}
}}

// getBatch returns an empty request list.
func getBatch() *ioBatch { return batchPool.Get().(*ioBatch) }

// putBatch recycles b, dropping its references to caller buffers.
func putBatch(b *ioBatch) {
	clear(b.reqs)
	b.reqs = b.reqs[:0]
	batchPool.Put(b)
}

// extent is one physically-resolved run of a virtual range: count
// consecutive virtual blocks that are either all holes or mapped to
// physically consecutive data blocks, so the run can be served by a single
// data-device call.
type extent struct {
	phys  uint64
	count int
	hole  bool
}

// appendRun extends the last extent when vblock resolution continues the
// current physical run, and starts a new extent otherwise. Callers seed it
// with a small stack-backed slice so typical requests resolve without a
// heap allocation; larger run counts spill via append.
func appendRun(exts []extent, phys uint64, hole bool) []extent {
	if n := len(exts); n > 0 {
		last := &exts[n-1]
		if hole && last.hole {
			last.count++
			return exts
		}
		if !hole && !last.hole && phys == last.phys+uint64(last.count) {
			last.count++
			return exts
		}
	}
	return append(exts, extent{phys: phys, count: 1, hole: hole})
}

// checkRangeLocked validates an n-block request at start against the thin
// geometry and returns its metadata record. Caller holds the pool lock.
func (t *Thin) checkRangeLocked(start, n uint64) (*thinMeta, error) {
	tm, ok := t.pool.thins[t.id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchThin, t.id)
	}
	if n > 0 && (start >= tm.virtBlocks || n > tm.virtBlocks-start) {
		return nil, fmt.Errorf("%w: vblocks [%d, %d) of %d",
			storage.ErrOutOfRange, start, start+n, tm.virtBlocks)
	}
	return tm, nil
}

// checkVecLocked validates a vec request and returns the thin's record and
// block count. Caller holds the pool lock.
func (t *Thin) checkVecLocked(start uint64, v storage.BlockVec) (*thinMeta, uint64, error) {
	if v.Segments() > 0 && v.BlockSize() != t.pool.blockSize {
		if _, ok := t.pool.thins[t.id]; !ok {
			return nil, 0, fmt.Errorf("%w: id %d", ErrNoSuchThin, t.id)
		}
		return nil, 0, storage.ErrBadBuffer
	}
	n := uint64(v.Len())
	tm, err := t.checkRangeLocked(start, n)
	if err != nil {
		return nil, 0, err
	}
	return tm, n, nil
}

// read serves one read request. The pool's shared lock plus this thin's
// lock (shared) are taken once for the whole vec and held across the
// data-device reads: the mapping resolution and the transfers it authorizes
// are atomic against discard/commit, so a physical block can never be
// freed, committed away and reallocated to another thin while a read of it
// is in flight. Concurrent readers — of this thin or any other — take both
// locks shared and never contend; fine-grained writers to OTHER thins
// proceed in parallel. Physically contiguous extent runs map to
// sub-vectors of the caller's own segments (Slice shares memory, no bytes
// move); holes zero-fill the destination segments directly. The
// map-resolve stage is recorded once per request after the page-table walk.
func (t *Thin) read(r *storage.Req) error {
	start, v := r.Start, r.Vec
	fid := t.pool.flightID(r.FID)
	var extArr [16]extent
	t.pool.mu.RLock()
	// Reads survive every degradation short of PoolFail: a read-only pool
	// keeps serving data.
	if err := t.pool.checkReadableLocked(); err != nil {
		t.pool.mu.RUnlock()
		return err
	}
	tm, n, err := t.checkVecLocked(start, v)
	if err != nil {
		t.pool.mu.RUnlock()
		return err
	}
	tm.mu.RLock()
	exts := extArr[:0]
	// The page table resolves the whole range with one sequential leaf
	// walk instead of n independent lookups.
	tm.pt.walkRange(start, n, func(_ uint64, pb uint64, mapped bool) {
		exts = appendRun(exts, pb, !mapped)
	})
	if fid != 0 {
		// The whole range is resolved; the transfers below serve exactly
		// this resolution.
		t.pool.flight.Record(fid, obs.StageMapResolve, obs.FOpRead, uint32(n), obs.ClassNone, 0)
	}
	// Holes zero-fill in place; the mapped extents — scattered over the
	// data device by the random allocator — go down as ONE batch.
	batch := getBatch()
	off := 0
	for _, e := range exts {
		sub := v.Slice(off, e.count)
		if e.hole {
			_ = sub.Range(func(_ int, seg []byte) error {
				clear(seg)
				return nil
			})
		} else {
			batch.reqs = append(batch.reqs, storage.Req{Op: storage.OpRead, Start: e.phys, Vec: sub, FID: fid})
		}
		off += e.count
	}
	err = storage.Do(t.pool.data, batch.reqs)
	putBatch(batch)
	tm.mu.RUnlock()
	t.pool.mu.RUnlock()
	return err
}

// writeAttempts is the number of optimistic shared-lock passes a write
// makes before falling back to the exclusive lock for guaranteed
// progress. More than one retry only happens when a concurrent discard
// keeps unmapping blocks of the range between the provision pass and the
// re-resolve — already undefined-content territory for the racing caller,
// but the fallback bounds the loop regardless.
const writeAttempts = 4

// write serves one write request. The common paths — pure
// overwrites AND writes that provision — run under the pool's SHARED lock:
// mapping mutation is serialized by the thin lock and allocation
// by the pool's allocation mutex, so concurrent writers to different thins
// proceed in parallel, provisioning included. Holding pool+thin across the
// transfer means a concurrent discard+commit can never free a block and
// hand it to another thin while this request's data is in flight. The
// dummy-write policy is still consulted per provisioned block, preserving
// the paper's Sec. IV-B trigger semantics. A pass that provisioned holes
// retries the resolve (the re-resolve sees the current mapping, including
// blocks a racing writer provisioned first); after writeAttempts races the
// request completes under the exclusive lock outright.
//
// Extent runs map to sub-vectors of the caller's own segments; the data
// device sees the caller's buffers directly — the thin layer moves no
// payload bytes.
//
// Stage order per request: provision events (one per hole, from inside allocate) fire
// on the provisioning pass; map-resolve is recorded exactly once, on the
// final fully-mapped walk immediately before the transfer — never on a
// hole-finding walk — so a fresh single-block write traces as
// [provision, map-resolve, devop], byte-identical to the lifecycle a
// dummy-write noise block emits (the trace-deniability invariant).
func (t *Thin) write(r *storage.Req) error {
	start, v := r.Start, r.Vec
	fid := t.pool.flightID(r.FID)
	t.pool.mutators.Add(1)
	defer t.pool.mutators.Add(-1)
	var extArr [16]extent
	var holeArr [16]uint64
	var fresh []uint64 // vblocks provisioned by this request, data not yet landed
	for attempt := 0; ; attempt++ {
		exclusive := attempt >= writeAttempts
		lock, unlock := t.pool.mu.RLock, t.pool.mu.RUnlock
		if exclusive {
			lock, unlock = t.pool.mu.Lock, t.pool.mu.Unlock
			// The pool will hold the writer critical section from
			// provisioning until the transfer completes; stage dummy-write
			// noise before entering it.
			t.pool.stageNoise()
		}
		lock()
		if err := t.pool.checkMutableLocked(); err != nil {
			unlock()
			t.unwindFresh(fresh, start) // nothing landed
			return err
		}
		tm, n, err := t.checkVecLocked(start, v)
		if err != nil {
			unlock()
			t.unwindFresh(fresh, start) // nothing landed
			return err
		}
		exts := extArr[:0]
		holes := holeArr[:0]
		tm.rlock()
		tm.pt.walkRange(start, n, func(off uint64, pb uint64, mapped bool) {
			if !mapped {
				holes = append(holes, start+off)
				return
			}
			exts = appendRun(exts, pb, false)
		})
		if len(holes) > 0 {
			// Provisioning takes the thin lock exclusively per hole;
			// release the shared hold first (RWMutex is not upgradable).
			tm.mu.RUnlock()
			if !exclusive {
				// Stage dummy-write noise first: the stage is a leaf lock,
				// safe under the shared pool lock, and keeps keystream
				// generation out of the thin-lock critical section.
				t.pool.stageNoise()
			}
			// The exclusive pass is the guaranteed-progress path: it
			// provisions and re-resolves under one acquisition.
			err = t.provisionHoles(tm, holes, &fresh, exclusive, fid)
			if err != nil {
				unlock()
				if !exclusive && errors.Is(err, ErrNoSpace) {
					// A read-locked writer cannot move the mode ladder in
					// place; record the exhaustion (and the recovery its
					// own unwind may have produced) now.
					t.pool.noteNoSpace()
				} else if !exclusive {
					// The unwind freed blocks under the shared lock; poke
					// recovery in case the pool sat out of space.
					t.pool.maybeRecoverSpace()
				}
				return err
			}
			if !exclusive {
				// Re-resolve under a fresh shared pass: the next walk sees
				// this pass's provisions plus any racing writer's.
				unlock()
				continue
			}
			exts = exts[:0]
			tm.mu.RLock()
			tm.pt.walkRange(start, n, func(_ uint64, pb uint64, _ bool) {
				exts = appendRun(exts, pb, false)
			})
		}
		if fid != 0 {
			// The range is fully mapped now — this walk is the one the
			// transfer serves, so it is the one the trace records.
			t.pool.flight.Record(fid, obs.StageMapResolve, obs.FOpWrite, uint32(n), obs.ClassNone, 0)
		}
		done, werr := t.writeExtentsLocked(fid, v, exts)
		tm.mu.RUnlock()
		unlock()
		if werr != nil {
			// Discard this request's provisions whose data never landed:
			// left mapped, they would read back stale physical content
			// instead of zeros. A device reporting partial completion
			// tells us exactly how much of the run made it; the
			// transferred prefix keeps its provisions. (Dummy writes
			// already performed stay — they are real, durable noise.)
			t.unwindFresh(fresh, start+done)
		}
		return werr
	}
}

// provisionHoles provisions the listed unmapped vblocks — mapping
// mutation rides the thin lock, allocation the allocation mutex —
// appending the vblocks THIS request provisioned to *fresh (holes a racing
// writer mapped first are skipped and stay theirs). On failure every
// vblock in *fresh is discarded: none of this request's data has been
// written yet, and a mapped block whose data was never written would read
// back device garbage instead of zeros. (Dummy writes already performed
// stay — they are real, durable noise.) Caller holds the pool lock — shared,
// or exclusively when exclusive is set — and no thin lock. Only an
// exclusive caller sees mode transitions (OutOfDataSpace entry, recovery
// after an unwind) happen in place; a shared caller applies them after
// dropping the read lock.
func (t *Thin) provisionHoles(tm *thinMeta, holes []uint64, fresh *[]uint64, exclusive bool, fid uint64) error {
	for _, vb := range holes {
		provisioned, err := t.pool.provisionVB(tm, vb, exclusive, fid)
		if err != nil {
			tm.mu.Lock()
			for _, f := range *fresh {
				_ = t.pool.discardThinLocked(tm, f)
			}
			tm.mu.Unlock()
			if exclusive {
				t.pool.maybeRecoverSpaceLocked()
			}
			return err
		}
		if provisioned {
			*fresh = append(*fresh, vb)
		}
	}
	return nil
}

// writeExtentsLocked issues the resolved extent runs as one batch of
// scatter-gather data-device requests over sub-vectors of the caller's
// segments — submitted together, waited for once — and returns how many
// blocks landed. Caller holds the pool lock (shared or exclusive) across
// the call — that is the point: the mappings the extents were resolved
// from cannot change while the data is in flight.
//
// "Landed" is prefix-shaped whatever the device did: every block of the
// extents before the first failed one, plus that extent's own completed
// prefix. A batching device may well have landed later extents too; they
// count as not landed, so the caller unwinds their fresh provisions and a
// failed write never leaves data above a hole it reports.
func (t *Thin) writeExtentsLocked(fid uint64, v storage.BlockVec, exts []extent) (uint64, error) {
	batch := getBatch()
	defer putBatch(batch)
	off := 0
	for _, e := range exts {
		batch.reqs = append(batch.reqs, storage.Req{Op: storage.OpWrite, Start: e.phys, Vec: v.Slice(off, e.count), FID: fid})
		off += e.count
	}
	werr := storage.Do(t.pool.data, batch.reqs)
	if werr == nil {
		return uint64(off), nil
	}
	failed := storage.FirstFailed(batch.reqs)
	done := uint64(batch.reqs[failed].Done)
	for _, e := range exts[:failed] {
		done += uint64(e.count)
	}
	return done, werr
}

// unwindFresh discards this request's fresh provisions at or above
// landedBelow (the vblocks whose data never reached the device). Caller
// holds no pool lock.
func (t *Thin) unwindFresh(fresh []uint64, landedBelow uint64) {
	if len(fresh) == 0 {
		return
	}
	t.pool.mu.Lock()
	if tm, ok := t.pool.thins[t.id]; ok {
		for _, vb := range fresh {
			if vb >= landedBelow {
				_ = t.pool.discardLocked(tm, vb)
			}
		}
	}
	t.pool.mu.Unlock()
}

// discard unmaps the count virtual blocks starting at start, freeing
// their physical blocks — the vectored TRIM the garbage collector issues
// when it reclaims a run of dummy space. The whole range is processed under
// one thin-lock acquisition, the same economics reads and writes get
// from bio merging — and like them it runs on the fine-grained path (pool
// read lock + the thin lock + the allocation mutex for the frees), so
// discards on one thin never stall writers of other thins,
// and the canonical discard-then-rewrite cycle stays parallel end to end.
// Unprovisioned blocks in the range are no-ops. The discard records no
// thinp stage — the unmap mutates metadata only, and the scheduler above
// already records the request's D/C lifecycle.
func (t *Thin) discard(start, count uint64) error {
	p := t.pool
	p.mutators.Add(1)
	defer p.mutators.Add(-1)
	p.mu.RLock()
	if err := p.checkMutableLocked(); err != nil {
		p.mu.RUnlock()
		return err
	}
	tm, err := t.checkRangeLocked(start, count)
	if err != nil {
		p.mu.RUnlock()
		return err
	}
	tm.mu.Lock()
	mapped0 := tm.pt.count
	var derr error
	for i := uint64(0); i < count; i++ {
		if derr = p.discardThinLocked(tm, start+i); derr != nil {
			break
		}
	}
	freed := mapped0 - tm.pt.count
	outOfSpace := p.mode == PoolOutOfDataSpace
	tm.mu.Unlock()
	p.mu.RUnlock()
	if derr != nil {
		return derr
	}
	if freed > 0 && outOfSpace {
		// Same-transaction frees came straight back to the allocator's
		// view; an out-of-data-space pool may now recover to Write. (Quarantined frees return at commit, which runs
		// its own recovery.)
		p.maybeRecoverSpace()
	}
	return nil
}

// sync serves one sync request, matching dm-thin's REQ_FLUSH handling: the
// data flush goes down in the request's own slot and records a leaf devop
// under its id, and the metadata commit records the commit-join/commit-flip
// pair — so a traced Flush shows exactly which group-commit round absorbed
// it and how long the door held.
func (t *Thin) sync(one []storage.Req) error {
	r := &one[0]
	submitted, fid := r.FID, t.pool.flightID(r.FID)
	r.FID = fid
	err := storage.Do(t.pool.data, one)
	r.FID = submitted
	if err != nil {
		return err
	}
	return t.pool.groupCommit(fid)
}

// Close implements storage.Device. Thin views are cheap handles; closing
// one does not affect the pool.
func (t *Thin) Close() error { return nil }
