package storage

import (
	"fmt"
	"sync"
	"time"

	"mobiceal/internal/prng"
)

// FlakyOp names an operation kind on a FlakyDevice for fault targeting and
// op-index accounting.
type FlakyOp int

// Operation kinds a FlakyDevice tracks.
const (
	FlakyRead FlakyOp = iota
	FlakyWrite
	FlakySync
	flakyOpCount
)

// String implements fmt.Stringer.
func (o FlakyOp) String() string {
	switch o {
	case FlakyRead:
		return "read"
	case FlakyWrite:
		return "write"
	case FlakySync:
		return "sync"
	default:
		return fmt.Sprintf("FlakyOp(%d)", int(o))
	}
}

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
	// LatencyRate is the per-block probability of a latency spike.
	LatencyRate float64
	// LatencySpike is how long a spiking operation stalls before
	// completing normally. Ignored when LatencyRate is 0.
	LatencySpike time.Duration
}

// FlakyStats counts the faults a FlakyDevice injected.
type FlakyStats struct {
	// Transient counts injected transient faults (rate-based and one-shot).
	Transient uint64
	// Medium counts operations failed against sticky bad blocks.
	Medium uint64
	// Spikes counts latency spikes served.
	Spikes uint64
}

type flakyKey struct {
	op  FlakyOp
	blk uint64
}

// FlakyDevice wraps a Device with deterministic, seeded misbehaviour — the
// three failure shapes real flash exhibits and the stack must absorb:
//
//   - transient faults (ErrTransient): an op fails once, its retry
//     succeeds. Injected at a configured rate and/or at explicit op
//     indexes via FailOpAt (the fault-sweep harness's injection hook).
//   - sticky bad blocks (ErrMedium): every read and write of a block
//     added with AddBadBlock fails, forever, like a grown defect.
//   - latency spikes: an op stalls for LatencySpike then completes.
//
// Transfers are block-granular like FaultDevice: the prefix before a
// faulting block transfers and the request fails with a PartialError,
// so upper-layer partial-completion handling is exercised. Per-block op
// counters (OpCount) number every block touched, giving the fault-sweep
// harness a stable index space to enumerate. FlakyDevice is safe for
// concurrent use; under concurrency the rate-based stream is still seeded
// but op interleaving decides which ops draw which faults.
type FlakyDevice struct {
	inner Device

	mu        sync.Mutex
	opts      FlakyOptions
	src       *prng.Source
	bad       map[uint64]struct{}
	oneShot   [flakyOpCount]map[uint64]error
	recovered map[flakyKey]struct{}
	ops       [flakyOpCount]uint64
	stats     FlakyStats
}

// NewFlakyDevice wraps inner with the given fault configuration.
func NewFlakyDevice(inner Device, opts FlakyOptions) *FlakyDevice {
	d := &FlakyDevice{
		inner:     inner,
		opts:      opts,
		src:       prng.NewSource(opts.Seed),
		bad:       make(map[uint64]struct{}),
		recovered: make(map[flakyKey]struct{}),
	}
	for i := range d.oneShot {
		d.oneShot[i] = make(map[uint64]error)
	}
	return d
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

// FailOpAt arms a one-shot fault: the op-index'th block operation of the
// given kind (as numbered by OpCount) fails with class (ErrTransient or
// ErrMedium; nil defaults to ErrTransient). The fault fires exactly once —
// a retry of the same block passes — which is what lets a fault sweep
// assert that a single transient error at ANY index is fully absorbed.
func (d *FlakyDevice) FailOpAt(op FlakyOp, opIndex uint64, class error) {
	if class == nil {
		class = ErrTransient
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.oneShot[op][opIndex] = class
}

// SetRates replaces the rate-based fault configuration (transient and
// latency rates) without disturbing counters, bad blocks or one-shots.
// Passing zeros disarms rate-based injection.
func (d *FlakyDevice) SetRates(transient, latency float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.opts.TransientRate = transient
	d.opts.LatencyRate = latency
}

// OpCount reports how many block operations of the given kind have been
// issued so far. Block ops are counted per block: a 4-block range write is
// four write ops. Sync counts one op per call.
func (d *FlakyDevice) OpCount(op FlakyOp) uint64 {
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

// checkOp decides the fate of one block op. It returns a non-nil error if
// the op must fail, and the spike duration to serve before completing
// (zero for none). Caller must not hold d.mu.
func (d *FlakyDevice) checkOp(op FlakyOp, blk uint64) (error, time.Duration) {
	d.mu.Lock()
	idx := d.ops[op]
	d.ops[op]++

	// Sticky bad block: dominates everything, fails forever.
	if op != FlakySync {
		if _, isBad := d.bad[blk]; isBad {
			d.stats.Medium++
			d.mu.Unlock()
			return fmt.Errorf("%w (%w): %v of bad block %d",
				ErrInjected, ErrMedium, op, blk), 0
		}
	}

	// One-shot injection at this op index.
	if class, ok := d.oneShot[op][idx]; ok {
		delete(d.oneShot[op], idx)
		if class == ErrTransient {
			d.stats.Transient++
			// Guarantee the retry passes even if rates are armed.
			d.recovered[flakyKey{op, blk}] = struct{}{}
		} else {
			d.stats.Medium++
		}
		d.mu.Unlock()
		return fmt.Errorf("%w (%w): %v op %d (block %d)",
			ErrInjected, class, op, idx, blk), 0
	}

	// Rate-based transient: the first touch of an (op, block) pair may
	// fail; after a fault the pair stays recovered for good, like a
	// controller remapping after a hiccup, so retries always converge.
	key := flakyKey{op, blk}
	if _, ok := d.recovered[key]; ok {
		d.mu.Unlock()
		return nil, 0
	}
	if d.opts.TransientRate > 0 && d.src.Float64() < d.opts.TransientRate {
		d.recovered[key] = struct{}{}
		d.stats.Transient++
		d.mu.Unlock()
		return fmt.Errorf("%w (%w): %v of block %d",
			ErrInjected, ErrTransient, op, blk), 0
	}

	var spike time.Duration
	if d.opts.LatencyRate > 0 && d.opts.LatencySpike > 0 &&
		d.src.Float64() < d.opts.LatencyRate {
		d.stats.Spikes++
		spike = d.opts.LatencySpike
	}
	d.mu.Unlock()
	return nil, spike
}

// firstFault scans a block range and returns the index of the first block
// whose op faults, its error, and the accumulated spike duration for the
// blocks that pass. ok=false means the whole range passes.
func (d *FlakyDevice) firstFault(op FlakyOp, start uint64, n int) (int, error, time.Duration) {
	var spike time.Duration
	for i := 0; i < n; i++ {
		err, s := d.checkOp(op, start+uint64(i))
		spike += s
		if err != nil {
			return i, err, spike
		}
	}
	return n, nil, spike
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
// completed count. Sync faults are op-index based only (one-shot FailOpAt
// with op FlakySync); rate-based and bad-block faults never hit a sync, so
// barrier behaviour stays deterministic under rate injection.
func (d *FlakyDevice) Do(reqs []Req) error {
	return Each(reqs, func(one []Req) error {
		r := &one[0]
		switch r.Op {
		case OpDiscard:
			return Do(d.inner, one)
		case OpSync:
			if err := d.syncFault(); err != nil {
				return err
			}
			return Do(d.inner, one)
		}
		op := FlakyRead
		if r.Op == OpWrite {
			op = FlakyWrite
		}
		done, ferr, spike := d.firstFault(op, r.Start, r.Blocks())
		if spike > 0 {
			time.Sleep(spike)
		}
		if ferr == nil {
			return Do(d.inner, one)
		}
		return failAfter(d.inner, one, done, ferr)
	})
}

// syncFault numbers one sync op and returns its armed one-shot fault, if
// any.
func (d *FlakyDevice) syncFault() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	idx := d.ops[FlakySync]
	d.ops[FlakySync]++
	class, ok := d.oneShot[FlakySync][idx]
	if !ok {
		return nil
	}
	delete(d.oneShot[FlakySync], idx)
	if class == ErrTransient {
		d.stats.Transient++
	} else {
		d.stats.Medium++
	}
	return fmt.Errorf("%w (%w): sync op %d", ErrInjected, class, idx)
}

// Close implements Device.
func (d *FlakyDevice) Close() error { return d.inner.Close() }
