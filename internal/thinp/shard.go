package thinp

import (
	"fmt"
	"sync"
	"time"

	"mobiceal/internal/obs"
)

// Allocation sharding — the XFS allocation-group analogue applied to the
// thin pool's single data space. The pool's bitmap words are partitioned
// into N contiguous, disjoint shards; each shard owns its word range's
// mutation lock, its own free-block gauge, and its own slice of the
// transaction delta (txAlloc/txFree/dirty bitmap words). Writers touch one
// shard lock per allocation instead of the pool's exclusive mapping lock,
// so provisioning throughput scales with writers until the shards
// themselves contend.
//
// The shard split is a RUNTIME-ONLY view: the on-disk v2 format still
// carries one logical bitmap, and commits drain every shard's delta back
// into the pool-global sets (drainDirtyLocked) before the arena fold, so
// the A/B image a sharded pool writes is byte-identical to the image an
// unsharded pool writes for the same logical history.
//
// The deniability-critical property is the random picker: MobiCeal's
// uniform-random placement is the load-bearing reason physical layout
// carries no volume information (paper Sec. V-A), so the sharded picker
// must stay distribution-equivalent to the unsharded one. It therefore
// draws ONE rank uniformly over the GLOBAL free count — never
// uniform-per-shard — and decomposes the rank across the shards' free
// gauges. Because shards are ascending and contiguous, the decomposition
// selects exactly the block the unsharded bm.NthFree(rank) would, and the
// PRNG consumes exactly one draw per allocation either way: a sharded and
// an unsharded pool driven by the same seed and serial workload place
// every block identically (pinned by TestShardedUnshardedEquivalence).
type allocShard struct {
	mu sync.Mutex
	// w0/w1 bound the bitmap words [w0, w1) this shard owns; lo/hi are the
	// corresponding block numbers [lo, hi). Word ranges never split a word
	// between shards, so a shard's bitmap mutations under mu can never race
	// another shard's read-modify-write of the same word.
	w0, w1 int
	lo, hi uint64

	// free gauges the shard's allocator-visible free blocks (the allocBM
	// view: committed-free minus the uncommitted-free quarantine). Writes
	// happen under mu; lock-free reads serve the rank decomposition and the
	// telemetry snapshot, with the shard lock re-verifying before a claim.
	free obs.Gauge
	// lockLat is the allocation-path acquire latency of mu — the direct
	// contention signal for the per-shard gauges surface.
	lockLat obs.Histogram

	// Per-shard slice of the transaction delta. txAlloc records blocks
	// allocated since the last commit, txFree quarantines frees of
	// committed state, dirtyBM the bitmap words that changed — the same
	// semantics as the pool-global sets they drain into at commit time
	// (drainDirtyLocked / detachTxLocked).
	txAlloc map[uint64]struct{}
	txFree  map[uint64]struct{}
	dirtyBM map[uint64]struct{}
}

// maxAutoShards caps the automatic shard count. 64 shards saturate the
// writer counts this pool targets (the bench sweeps 1..64 writers) while
// keeping the pick path's gauge snapshot a single cache line sweep.
const maxAutoShards = 64

// autoShardCount picks the shard count for a pool of the given bitmap word
// count: one shard per 8 words (512 blocks) up to maxAutoShards, so tiny
// pools do not fragment into empty shards.
func autoShardCount(words int) int {
	n := words / 8
	if n > maxAutoShards {
		n = maxAutoShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// initShards builds the runtime shard view over the current bitmaps.
// Called once from CreatePool/OpenPool after bm and allocBM exist, before
// the pool is shared.
//
// Sharding means one thing, the rank decomposition of pickUniform, so only
// the RandomAllocator shards — its sharded pick is exactly
// serial-equivalent to the unsharded one, which makes sharding free. Every
// other allocator gets exactly one shard and picks through
// Allocator.PickFree: the sequential baseline's physical layout is the
// point of it, and a custom allocator cannot be decomposed across shards.
// opts.shards lets in-package tests build the unsharded reference pool.
func (p *Pool) initShards() {
	words := len(p.bm.words)
	n := 1
	if _, random := p.opts.Allocator.(*RandomAllocator); random {
		if n = p.opts.shards; n <= 0 {
			n = autoShardCount(words)
		}
	}
	if n > words && words > 0 {
		n = words
	}
	wps := 1
	if words > 0 {
		wps = (words + n - 1) / n
	}
	p.wordsPerShard = wps
	n = 1
	if words > 0 {
		n = (words + wps - 1) / wps
	}
	p.shards = make([]*allocShard, n)
	for i := range p.shards {
		w0 := i * wps
		w1 := w0 + wps
		if w1 > words {
			w1 = words
		}
		lo := uint64(w0) * 64
		hi := uint64(w1) * 64
		if hi > p.bm.nbits {
			hi = p.bm.nbits
		}
		if lo > hi {
			lo = hi
		}
		s := &allocShard{
			w0: w0, w1: w1,
			lo: lo, hi: hi,
			txAlloc: make(map[uint64]struct{}),
			txFree:  make(map[uint64]struct{}),
			dirtyBM: make(map[uint64]struct{}),
		}
		s.free.Set(int64(p.allocBM.freeInRange(w0, w1)))
		p.shards[i] = s
	}
}

// shardIndexOf returns the index of the shard owning physical block pb.
// pb must be in range.
func (p *Pool) shardIndexOf(pb uint64) int {
	i := int(pb/64) / p.wordsPerShard
	if i >= len(p.shards) {
		i = len(p.shards) - 1
	}
	return i
}

// shardOf returns the shard owning physical block pb. pb must be in range.
func (p *Pool) shardOf(pb uint64) *allocShard {
	return p.shards[p.shardIndexOf(pb)]
}

// lock takes s.mu, recording the acquire latency in the shard's
// contention histogram.
func (s *allocShard) lock() {
	t0 := time.Now()
	s.mu.Lock()
	s.lockLat.Since(t0)
}

// claimShardLocked marks pb allocated in both bitmaps and records it in
// s's transaction delta. Caller holds s.mu and pb lies in s's range.
func (p *Pool) claimShardLocked(s *allocShard, pb uint64) error {
	if err := p.bm.Set(pb); err != nil {
		return fmt.Errorf("thinp: marking block %d: %w", pb, err)
	}
	if err := p.allocBM.Set(pb); err != nil {
		return fmt.Errorf("thinp: marking block %d: %w", pb, err)
	}
	s.free.Dec()
	s.txAlloc[pb] = struct{}{}
	s.dirtyBM[pb/64] = struct{}{}
	return nil
}

// allocate picks and claims one free block through the sharded allocator.
// Caller holds p.mu in either mode.
//
// This is the telemetry choke point for provisioning: real provisions and
// dummy-write allocations both land here, so the public count and latency
// distribution cannot tell them apart (metrics.go). The flight recorder's
// provision stage hangs off the same choke point for the same reason —
// a tagged dummy allocation and a tagged real one emit the identical
// event (stage, op, count only; never the block number).
func (p *Pool) allocate(fid uint64) (uint64, error) {
	t0 := time.Now()
	pb, err := p.pickAndClaim()
	if err != nil {
		return 0, err
	}
	p.m.Provisions.Inc()
	p.m.AllocLat.Since(t0)
	if fid != 0 {
		p.flight.Record(fid, obs.StageProvision, obs.FOpWrite, 1, obs.ClassNone, 0)
	}
	return pb, nil
}

// pickRedraws bounds how many stale-gauge retries the uniform picker makes
// before falling back to the all-shards-locked exact pick.
const pickRedraws = 16

// pickAndClaim routes one allocation: a single-shard pool picks through
// the configured allocator, a sharded one — always the RandomAllocator, see
// initShards — through pickUniform. Errors from the pick wrap as
// ErrNoSpace, preserving the unsharded error chain.
func (p *Pool) pickAndClaim() (uint64, error) {
	if len(p.shards) > 1 {
		return p.pickUniform(p.opts.Allocator.(*RandomAllocator))
	}
	// Single shard: the configured allocator picks directly from the
	// allocator bitmap under the shard lock — exactly the unsharded pool.
	s := p.shards[0]
	s.lock()
	defer s.mu.Unlock()
	pb, err := p.opts.Allocator.PickFree(p.allocBM)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	if err := p.claimShardLocked(s, pb); err != nil {
		return 0, err
	}
	return pb, nil
}

// pickUniform is the sharded random pick: one rank drawn uniformly over
// the GLOBAL free count, decomposed across the shards' free gauges by
// prefix sum, resolved to a block inside the target shard under its lock.
// Globally uniform — never uniform-per-shard — so dummy, public and hidden
// placements stay indistinguishable regardless of how free space skews
// across shards. Under a concurrent mutator the gauge snapshot can go
// stale between the draw and the shard lock; the shard re-verifies under
// its lock and the picker redraws on a miss, falling back to an exact pick
// under all shard locks after pickRedraws rounds.
func (p *Pool) pickUniform(a *RandomAllocator) (uint64, error) {
	var stack [maxAutoShards]uint64
	frees := stack[:0]
	if len(p.shards) > len(stack) {
		frees = make([]uint64, 0, len(p.shards))
	}
	for try := 0; try < pickRedraws; try++ {
		frees = frees[:0]
		total := uint64(0)
		for _, s := range p.shards {
			f := uint64(s.free.Load())
			frees = append(frees, f)
			total += f
		}
		if total == 0 {
			break
		}
		rank := a.drawRank(total)
		var s *allocShard
		local := rank
		for i, f := range frees {
			if local < f {
				s = p.shards[i]
				break
			}
			local -= f
		}
		if s == nil {
			continue // racing release grew a gauge mid-sweep; redraw
		}
		s.lock()
		if local < uint64(s.free.Load()) {
			pb, ok := p.allocBM.nthFreeInRange(s.w0, s.w1, local)
			if ok {
				err := p.claimShardLocked(s, pb)
				s.mu.Unlock()
				return pb, err
			}
		}
		s.mu.Unlock()
		// Stale snapshot: the shard lost free blocks between the gauge read
		// and the lock. Redraw against fresh gauges.
	}
	return p.pickUniformSlow(a)
}

// pickUniformSlow is the uniform picker's ground-truth fallback: all shard
// locks taken in ascending order (the deadlock-free total order), free
// counts recounted from the bitmap, one draw, exact resolution. Reached
// only when the pool is out of space or gauges kept going stale under
// extreme contention.
func (p *Pool) pickUniformSlow(a *RandomAllocator) (uint64, error) {
	for _, s := range p.shards {
		s.lock()
	}
	defer func() {
		for i := len(p.shards) - 1; i >= 0; i-- {
			p.shards[i].mu.Unlock()
		}
	}()
	total := uint64(0)
	for _, s := range p.shards {
		total += p.allocBM.freeInRange(s.w0, s.w1)
	}
	if total == 0 {
		return 0, fmt.Errorf("%w: %v", ErrNoSpace, ErrBitmapFull)
	}
	local := a.drawRank(total)
	for _, s := range p.shards {
		f := p.allocBM.freeInRange(s.w0, s.w1)
		if local < f {
			pb, ok := p.allocBM.nthFreeInRange(s.w0, s.w1, local)
			if !ok {
				return 0, fmt.Errorf("%w: %v", ErrNoSpace, ErrBitmapFull)
			}
			return pb, p.claimShardLocked(s, pb)
		}
		local -= f
	}
	return 0, fmt.Errorf("%w: %v", ErrNoSpace, ErrBitmapFull)
}

// release frees physical block pb through its shard. A block allocated
// within the current transaction returns to the allocator immediately — no
// committed mapping references it — and release reports sameTx true so the
// caller can run space recovery; a block the last commit still maps is
// quarantined in the shard's txFree until the commit recording the free is
// durable, mirroring dm-thin's rule of never reusing a block a committed
// mapping can still reach. Caller holds p.mu in either mode.
func (p *Pool) release(pb uint64) (sameTx bool, err error) {
	if pb >= p.bm.Size() {
		return false, p.bm.Clear(pb) // surfaces the range error
	}
	s := p.shardOf(pb)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := p.bm.Clear(pb); err != nil {
		return false, err
	}
	if _, thisTx := s.txAlloc[pb]; thisTx {
		delete(s.txAlloc, pb)
		if err := p.allocBM.Clear(pb); err != nil {
			return false, err
		}
		s.free.Inc()
		sameTx = true
	} else {
		s.txFree[pb] = struct{}{}
	}
	s.dirtyBM[pb/64] = struct{}{}
	p.m.Releases.Inc()
	return sameTx, nil
}

// releaseQuarantinedLocked returns one durably-freed block to the
// allocator's view — commit phase 3, after the superblock flip landed.
// Caller holds p.mu exclusively.
func (p *Pool) releaseQuarantinedLocked(pb uint64) error {
	s := p.shardOf(pb)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := p.allocBM.Clear(pb); err != nil {
		return err
	}
	s.free.Inc()
	return nil
}

// drainDirtyLocked folds every shard's dirty bitmap words and every
// stripe's dirty thin ids into the pool-global delta sets the commit fold
// consumes — level one of the two-level commit door. Caller holds p.mu
// exclusively (commit phase 1), so no fine-grained writer is mutating the
// per-shard state concurrently; the shard/stripe locks are still taken for
// the lock-order discipline's uniformity.
func (p *Pool) drainDirtyLocked() {
	// The len probes run without the shard/stripe locks: p.mu is held
	// exclusively, so no fine-grained writer can be mutating them, and
	// skipping the ~hundred mutex round-trips for untouched shards keeps
	// the drain O(dirty), not O(shards) — it runs on every commit.
	for _, s := range p.shards {
		if len(s.dirtyBM) == 0 {
			continue
		}
		s.mu.Lock()
		for w := range s.dirtyBM {
			p.dirtyBM[w] = struct{}{}
		}
		resetSet(&s.dirtyBM)
		s.mu.Unlock()
	}
	for i := range p.stripes {
		st := &p.stripes[i]
		if len(st.dirty) == 0 {
			continue
		}
		st.mu.Lock()
		for id := range st.dirty {
			p.dirtyThins[id] = struct{}{}
		}
		clear(st.dirty)
		st.mu.Unlock()
	}
}

// detachTxLocked moves every shard's transaction delta into the combined
// maps a commit makes durable, leaving the shards with empty deltas for
// the next transaction. Caller holds p.mu exclusively.
func (p *Pool) detachTxLocked() (alloc, free map[uint64]struct{}) {
	na, nf := 0, 0
	for _, s := range p.shards {
		na += len(s.txAlloc)
		nf += len(s.txFree)
	}
	alloc = make(map[uint64]struct{}, na)
	free = make(map[uint64]struct{}, nf)
	for _, s := range p.shards {
		if len(s.txAlloc) == 0 && len(s.txFree) == 0 {
			continue
		}
		s.mu.Lock()
		for pb := range s.txAlloc {
			alloc[pb] = struct{}{}
		}
		for pb := range s.txFree {
			free[pb] = struct{}{}
		}
		resetSet(&s.txAlloc)
		resetSet(&s.txFree)
		s.mu.Unlock()
	}
	return alloc, free
}

// mergeTxBackLocked routes a failed commit's detached transaction record
// back into the shards, keyed by block ownership — the error-path
// merge-back that keeps a read-only pool's in-memory delta intact for a
// later reopen. Caller holds p.mu exclusively.
func (p *Pool) mergeTxBackLocked(alloc, free map[uint64]struct{}) {
	for pb := range alloc {
		s := p.shardOf(pb)
		s.mu.Lock()
		s.txAlloc[pb] = struct{}{}
		s.mu.Unlock()
	}
	for pb := range free {
		s := p.shardOf(pb)
		s.mu.Lock()
		s.txFree[pb] = struct{}{}
		s.mu.Unlock()
	}
}

// CheckConsistency verifies the sharded allocator's runtime bookkeeping
// against the logical bitmaps:
//
//  1. the shard ranges partition [0, Size()) with no gap or overlap (so no
//     block can be claimed by two shards),
//  2. each shard's free gauge equals a recount of its allocBM range, and
//     the gauges sum to the global allocator-visible free count,
//  3. every block in a shard's txAlloc/txFree delta lies inside that
//     shard's range,
//  4. the allocator view is the committed view plus the quarantine: every
//     block allocated in bm is allocated in allocBM.
//
// The fault-sweep harness runs it beside CheckIntegrity after every
// interesting transition.
func (p *Pool) CheckConsistency() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var prevHi uint64
	var totalFree uint64
	for i, s := range p.shards {
		if s.lo != prevHi {
			return fmt.Errorf("thinp: shard %d starts at block %d, want %d", i, s.lo, prevHi)
		}
		if s.hi < s.lo {
			return fmt.Errorf("thinp: shard %d range [%d, %d) inverted", i, s.lo, s.hi)
		}
		prevHi = s.hi
		s.mu.Lock()
		gauge := s.free.Load()
		recount := p.allocBM.freeInRange(s.w0, s.w1)
		bad := gauge != int64(recount)
		var rangeErr error
		for pb := range s.txAlloc {
			if pb < s.lo || pb >= s.hi {
				rangeErr = fmt.Errorf("thinp: shard %d claims allocated block %d outside [%d, %d)",
					i, pb, s.lo, s.hi)
				break
			}
		}
		if rangeErr == nil {
			for pb := range s.txFree {
				if pb < s.lo || pb >= s.hi {
					rangeErr = fmt.Errorf("thinp: shard %d claims freed block %d outside [%d, %d)",
						i, pb, s.lo, s.hi)
					break
				}
			}
		}
		s.mu.Unlock()
		if bad {
			return fmt.Errorf("thinp: shard %d free gauge %d != bitmap recount %d", i, gauge, recount)
		}
		if rangeErr != nil {
			return rangeErr
		}
		totalFree += recount
	}
	if prevHi != p.bm.Size() {
		return fmt.Errorf("thinp: shards cover blocks [0, %d) of %d", prevHi, p.bm.Size())
	}
	if totalFree != p.allocBM.Free() {
		return fmt.Errorf("thinp: shard free counts sum to %d, global free is %d",
			totalFree, p.allocBM.Free())
	}
	for w := range p.bm.words {
		if p.bm.words[w]&^p.allocBM.words[w] != 0 {
			return fmt.Errorf("thinp: bitmap word %d allocated outside the allocator view", w)
		}
	}
	return nil
}

// ShardCount reports the pool's runtime shard count (1 when sharding is
// effectively off).
func (p *Pool) ShardCount() int { return len(p.shards) }
