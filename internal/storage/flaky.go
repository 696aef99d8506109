package storage

import (
	"fmt"
	"sync"

	"mobiceal/internal/prng"
)

// FlakyOptions configures a FlakyDevice. The zero value injects nothing.
type FlakyOptions struct {
	// Seed drives the deterministic fault stream. Two FlakyDevices with
	// identical seeds, rates and single-threaded op sequences inject
	// identical faults.
	Seed uint64
	// TransientRate is the per-block probability in [0,1] that an
	// operation fails with a transient (succeeds-on-retry) fault the
	// first time it touches a given (op, block) pair. Every later
	// operation on that pair is guaranteed to pass, modelling a
	// controller hiccup that clears for good once ridden out.
	TransientRate float64
}

// FlakyStats counts the faults a FlakyDevice injected.
type FlakyStats struct {
	// Transient counts injected transient faults (rate-based and one-shot).
	Transient uint64
	// Medium counts operations failed against sticky bad blocks, and
	// one-shots of the medium class.
	Medium uint64
	// Budget counts the requests an exhausted budget failed, indexed by Op.
	Budget [OpSync + 1]uint64
}

// opKey names one op of a kind: a block for the recovered set, an op index
// for the one-shots.
type opKey struct {
	op Op
	n  uint64
}

// budget is an armed sticky fault: left more block ops (calls, for a sync)
// pass, then every one fails with class.
type budget struct {
	armed bool
	left  int
	class error
}

// FlakyDevice wraps a Device with deterministic, seeded misbehaviour — the
// failure shapes real flash exhibits and the stack must absorb:
//
//   - transient faults (ErrTransient): an op fails once, its retry
//     succeeds. Injected at a configured rate and/or at explicit op
//     indexes via FailOpAt (the fault-sweep harness's injection hook).
//   - sticky bad blocks (ErrMedium): every read and write of a block
//     added with AddBadBlock fails, forever, like a grown defect.
//   - a dying device: FailAfter arms a budget per op kind, after which
//     every op of that kind fails until Disarm — a flash controller going
//     bad mid-write, which the upper layers must report cleanly rather
//     than corrupt state over.
//
// Transfers are block-granular: the prefix before a faulting block
// transfers and the request fails with a PartialError, so upper-layer
// partial-completion handling is exercised. Per-block op counters (OpCount)
// number every block touched, giving the fault-sweep harness a stable index
// space to enumerate. FlakyDevice is safe for concurrent use; under
// concurrency the rate-based stream is still seeded but op interleaving
// decides which ops draw which faults.
type FlakyDevice struct {
	inner Device

	mu        sync.Mutex
	opts      FlakyOptions
	src       *prng.Source
	bad       map[uint64]struct{}
	oneShot   map[opKey]error
	recovered map[opKey]struct{}
	budget    [OpSync + 1]budget
	ops       [OpSync + 1]uint64
	stats     FlakyStats
}

// NewFlakyDevice wraps inner with the given fault configuration.
func NewFlakyDevice(inner Device, opts FlakyOptions) *FlakyDevice {
	return &FlakyDevice{
		inner:     inner,
		opts:      opts,
		src:       prng.NewSource(opts.Seed),
		bad:       make(map[uint64]struct{}),
		oneShot:   make(map[opKey]error),
		recovered: make(map[opKey]struct{}),
	}
}

// injected builds an injected fault, classified by class (ErrTransient or
// ErrMedium) when it is non-nil, so errors.Is sees both ErrInjected and the
// class. An unclassified fault is one upper layers treat as permanent.
func injected(class error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if class == nil {
		return fmt.Errorf("%w: %s", ErrInjected, msg)
	}
	return fmt.Errorf("%w (%w): %s", ErrInjected, class, msg)
}

// AddBadBlock marks blk as a sticky bad block: all subsequent reads and
// writes of it fail with an ErrMedium-classified fault.
func (d *FlakyDevice) AddBadBlock(blk uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bad[blk] = struct{}{}
}

// ClearBadBlocks forgets all sticky bad blocks.
func (d *FlakyDevice) ClearBadBlocks() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bad = make(map[uint64]struct{})
}

// FailOpAt arms a one-shot fault: the op-index'th block operation of kind op
// (as numbered by OpCount) fails with class (ErrTransient or ErrMedium; nil
// defaults to ErrTransient). The fault fires exactly once — a retry of the
// same block passes — which is what lets a fault sweep assert that a single
// transient error at ANY index is fully absorbed.
func (d *FlakyDevice) FailOpAt(op Op, opIndex uint64, class error) {
	if class == nil {
		class = ErrTransient
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.oneShot[opKey{op, opIndex}] = class
}

// FailAfter arms a sticky budget for op (OpRead, OpWrite or OpSync): the
// next n block ops of that kind — calls, for a sync — pass, and every later
// one fails with ErrInjected, classified by class when it is non-nil, until
// Disarm. Arming again replaces the budget. A request that runs out of
// budget mid-transfer completes exactly the blocks the budget covered, as a
// PartialError; a failed sync never reaches the inner device, the way a
// flush command times out at a dying controller before any durability is
// established.
func (d *FlakyDevice) FailAfter(op Op, n int, class error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.budget[op] = budget{armed: true, left: n, class: class}
}

// Disarm clears every armed budget.
func (d *FlakyDevice) Disarm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.budget = [OpSync + 1]budget{}
}

// SetTransientRate replaces TransientRate without disturbing counters, bad
// blocks, budgets or one-shots. Zero disarms rate-based injection.
func (d *FlakyDevice) SetTransientRate(rate float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.opts.TransientRate = rate
}

// OpCount reports how many block operations of kind op have been issued so
// far. Block ops are counted per block: a 4-block range write is four write
// ops. Sync counts one op per call.
func (d *FlakyDevice) OpCount(op Op) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops[op]
}

// Stats returns a snapshot of the injected-fault counters.
func (d *FlakyDevice) Stats() FlakyStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// exhaustedLocked takes one unit of op's armed budget and reports whether
// there was none left: the device is dead for op. Caller holds d.mu.
func (d *FlakyDevice) exhaustedLocked(op Op) bool {
	b := &d.budget[op]
	if !b.armed {
		return false
	}
	if b.left > 0 {
		b.left--
		return false
	}
	d.stats.Budget[op]++
	return true
}

// fault numbers one op of kind op — a block op at blk, or a sync call — and
// returns the fault it draws, nil when it passes. Rate-based and bad-block
// faults never hit a sync, so barrier behaviour stays deterministic under
// rate injection.
func (d *FlakyDevice) fault(op Op, blk uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	idx := d.ops[op]
	d.ops[op]++

	// An exhausted budget is a dead device: nothing else matters.
	if d.exhaustedLocked(op) {
		return injected(d.budget[op].class, "%v op %d past the budget (failure %d)",
			op, idx, d.stats.Budget[op])
	}

	// Sticky bad block: fails forever.
	if _, isBad := d.bad[blk]; isBad && op != OpSync {
		d.stats.Medium++
		return injected(ErrMedium, "%v of bad block %d", op, blk)
	}

	// One-shot injection at this op index.
	if class, ok := d.oneShot[opKey{op, idx}]; ok {
		delete(d.oneShot, opKey{op, idx})
		if class == ErrTransient {
			d.stats.Transient++
			// Guarantee the retry passes even if rates are armed.
			d.recovered[opKey{op, blk}] = struct{}{}
		} else {
			d.stats.Medium++
		}
		return injected(class, "%v op %d (block %d)", op, idx, blk)
	}
	if op == OpSync {
		return nil
	}

	// Rate-based transient: the first touch of an (op, block) pair may
	// fail; after a fault the pair stays recovered for good, like a
	// controller remapping after a hiccup, so retries always converge.
	key := opKey{op, blk}
	if _, ok := d.recovered[key]; ok {
		return nil
	}
	if d.opts.TransientRate > 0 && d.src.Float64() < d.opts.TransientRate {
		d.recovered[key] = struct{}{}
		d.stats.Transient++
		return injected(ErrTransient, "%v of block %d", op, blk)
	}
	return nil
}

// BlockSize implements Device.
func (d *FlakyDevice) BlockSize() int { return d.inner.BlockSize() }

// NumBlocks implements Device.
func (d *FlakyDevice) NumBlocks() uint64 { return d.inner.NumBlocks() }

// ReadBlock implements Device.
func (d *FlakyDevice) ReadBlock(idx uint64, dst []byte) error { return DoBlock(d, OpRead, idx, dst) }

// WriteBlock implements Device.
func (d *FlakyDevice) WriteBlock(idx uint64, src []byte) error { return DoBlock(d, OpWrite, idx, src) }

// Sync implements Device.
func (d *FlakyDevice) Sync() error { return Sync(d) }

// Do implements Doer, one request at a time and block-granularly: the
// prefix before the first faulting block transfers — it may end
// mid-segment — then the request fails with a PartialError carrying the
// completed count. A faulted sync never reaches the inner device. Discards
// pass through untouched.
func (d *FlakyDevice) Do(reqs []Req) error {
	return Each(reqs, func(one []Req) error {
		r := &one[0]
		switch r.Op {
		case OpRead, OpWrite:
			for i := 0; i < r.Blocks(); i++ {
				if err := d.fault(r.Op, r.Start+uint64(i)); err != nil {
					return failAfter(d.inner, one, i, err)
				}
			}
		case OpSync:
			if err := d.fault(OpSync, 0); err != nil {
				return err
			}
		}
		return Do(d.inner, one)
	})
}

// Close implements Device.
func (d *FlakyDevice) Close() error { return d.inner.Close() }
