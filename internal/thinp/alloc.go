package thinp

import (
	"fmt"
	"sync"
	"time"

	"mobiceal/internal/obs"
	"mobiceal/internal/prng"
	"mobiceal/internal/spin"
)

// Allocator picks which free data block satisfies a provisioning request.
// Implementations see the pool's effective bitmap (committed state plus
// in-transaction allocations), so the paper's "transaction problem" — a
// block allocated twice before the bitmap commit (Sec. V-A) — cannot occur:
// every allocation is immediately visible to subsequent picks.
type Allocator interface {
	// PickFree returns a free block index from bm.
	PickFree(bm *Bitmap) (uint64, error)
	// Name identifies the strategy in experiment output.
	Name() string
}

// SequentialAllocator is the stock dm-thin strategy: first-fit from a
// roving cursor, so blocks are handed out in ascending disk order. Under
// this strategy an adversary observing the physical layout sees public
// blocks followed by runs of non-public blocks whose length betrays large
// hidden writes (paper Sec. IV-B), which is exactly what the layout
// detector in the adversary package exploits.
type SequentialAllocator struct {
	mu     sync.Mutex
	cursor uint64
}

var _ Allocator = (*SequentialAllocator)(nil)

// NewSequentialAllocator returns the stock allocator starting at block 0.
func NewSequentialAllocator() *SequentialAllocator { return &SequentialAllocator{} }

// Name implements Allocator.
func (a *SequentialAllocator) Name() string { return "sequential" }

// PickFree implements Allocator.
func (a *SequentialAllocator) PickFree(bm *Bitmap) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	idx, err := bm.NextFree(a.cursor)
	if err != nil {
		return 0, err
	}
	a.cursor = idx + 1
	return idx, nil
}

// RandomAllocator is MobiCeal's replacement strategy (Sec. V-A): pick i
// uniformly over the number of free blocks and allocate the i-th free
// block, so every write — public, hidden or dummy — lands at a uniformly
// random free location and the physical layout carries no information about
// which volume a block belongs to.
type RandomAllocator struct {
	mu  sync.Mutex
	src *prng.Source
}

var _ Allocator = (*RandomAllocator)(nil)

// NewRandomAllocator returns a random allocator drawing from src.
func NewRandomAllocator(src *prng.Source) *RandomAllocator {
	return &RandomAllocator{src: src}
}

// Name implements Allocator.
func (a *RandomAllocator) Name() string { return "random" }

// PickFree implements Allocator.
func (a *RandomAllocator) PickFree(bm *Bitmap) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	free := bm.Free()
	if free == 0 {
		return 0, ErrBitmapFull
	}
	return bm.NthFree(a.src.Uint64n(free))
}

// lockAlloc takes allocMu, polling like the thin locks before parking: the
// mutex is held for a few hundred nanoseconds, far below the cost of a park
// and wake.
func (p *Pool) lockAlloc() { spin.Lock(&p.allocMu) }

// allocate picks and claims one free block: the configured allocator picks
// from the allocator bitmap under allocMu. Caller holds p.mu in either
// mode. Errors from the pick wrap as ErrNoSpace.
//
// This is the telemetry choke point for provisioning: real provisions and
// dummy-write allocations both land here, so the public count and latency
// distribution cannot tell them apart (metrics.go). The flight recorder's
// provision stage hangs off the same choke point for the same reason —
// a tagged dummy allocation and a tagged real one emit the identical
// event (stage, op, count only; never the block number).
func (p *Pool) allocate(fid uint64) (uint64, error) {
	t0 := time.Now()
	p.lockAlloc()
	pb, err := p.opts.Allocator.PickFree(p.allocBM)
	if err != nil {
		p.allocMu.Unlock()
		return 0, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	err = p.bm.Set(pb)
	if err == nil {
		err = p.allocBM.Set(pb)
	}
	if err != nil {
		p.allocMu.Unlock()
		return 0, fmt.Errorf("thinp: marking block %d: %w", pb, err)
	}
	p.txAlloc[pb] = struct{}{}
	p.dirtyBM[pb/64] = struct{}{}
	p.allocMu.Unlock()
	p.m.Provisions.Inc()
	p.m.AllocLat.Since(t0)
	if fid != 0 {
		p.flight.Record(fid, obs.StageProvision, obs.FOpWrite, 1, obs.ClassNone, 0)
	}
	return pb, nil
}

// release frees physical block pb. A block allocated within the current
// transaction returns to the allocator immediately — no committed mapping
// references it — and release reports sameTx true so the caller can run
// space recovery; a block the last commit still maps is quarantined in
// txFree until the commit recording the free is durable, mirroring
// dm-thin's rule of never reusing a block a committed mapping can still
// reach. Caller holds p.mu in either mode.
func (p *Pool) release(pb uint64) (sameTx bool, err error) {
	p.lockAlloc()
	defer p.allocMu.Unlock()
	if err := p.bm.Clear(pb); err != nil {
		return false, err
	}
	if _, thisTx := p.txAlloc[pb]; thisTx {
		delete(p.txAlloc, pb)
		if err := p.allocBM.Clear(pb); err != nil {
			return false, err
		}
		sameTx = true
	} else {
		p.txFree[pb] = struct{}{}
	}
	p.dirtyBM[pb/64] = struct{}{}
	p.m.Releases.Inc()
	return sameTx, nil
}

// CheckConsistency verifies the allocator's runtime bookkeeping against the
// logical bitmaps:
//
//  1. both bitmaps' rank indexes and allocation counts equal a recount of
//     their words,
//  2. the allocator view is the committed view plus the quarantine: every
//     block allocated in bm is allocated in allocBM,
//  3. the transaction record agrees with the bitmaps: a block in txFree is
//     quarantined (free in bm, allocated in allocBM); a block in txAlloc is
//     allocated in allocBM, and in bm unless it was freed again while its
//     commit was in flight; with no commit in flight, txFree is the whole
//     quarantine.
//
// The fault-sweep harness runs it beside CheckIntegrity after every
// interesting transition.
func (p *Pool) CheckConsistency() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range []*Bitmap{p.bm, p.allocBM} {
		if err := b.checkIndex(); err != nil {
			return err
		}
	}
	var quarantine uint64
	for w := range p.bm.words {
		if p.bm.words[w]&^p.allocBM.words[w] != 0 {
			return fmt.Errorf("thinp: bitmap word %d allocated outside the allocator view", w)
		}
		quarantine += uint64(popcount(p.allocBM.words[w] &^ p.bm.words[w]))
	}
	for pb := range p.txFree {
		if p.bm.IsAllocated(pb) || !p.allocBM.IsAllocated(pb) {
			return fmt.Errorf("thinp: freed block %d is not quarantined", pb)
		}
	}
	for pb := range p.txAlloc {
		_, refreed := p.txFree[pb]
		if !p.allocBM.IsAllocated(pb) || !p.bm.IsAllocated(pb) && !refreed {
			return fmt.Errorf("thinp: block %d allocated this transaction is free", pb)
		}
	}
	if p.inFlightAlloc == nil && quarantine != uint64(len(p.txFree)) {
		return fmt.Errorf("thinp: %d blocks quarantined, transaction frees %d", quarantine, len(p.txFree))
	}
	return nil
}
