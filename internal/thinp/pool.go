package thinp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mobiceal/internal/obs"
	"mobiceal/internal/prng"
	"mobiceal/internal/spin"
	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

// Pool errors.
var (
	// ErrNoSpace reports an exhausted data device.
	ErrNoSpace = errors.New("thinp: pool out of data space")
	// ErrMetaSpace reports a metadata device too small for the pool.
	ErrMetaSpace = errors.New("thinp: metadata device too small")
	// ErrNoSuchThin reports an unknown thin device id.
	ErrNoSuchThin = errors.New("thinp: no such thin device")
	// ErrThinExists reports creation of a duplicate thin device id.
	ErrThinExists = errors.New("thinp: thin device already exists")
	// ErrCorruptMeta reports unreadable pool metadata.
	ErrCorruptMeta = errors.New("thinp: corrupt pool metadata")
)

const (
	superMagic = 0x7468696e_706f6f6c // "thinpool"
	// superVersion 2 is the A/B shadow-image format; version 1 was the
	// single in-place image of the original incremental commit.
	superVersion = 2
)

// DummyPolicy is MobiCeal's hook into the provisioning path. After the pool
// provisions a new physical block for a thin device, it consults the policy;
// if the policy fires, the pool immediately performs a dummy write — it
// allocates count blocks via the pool allocator, maps them into the target
// thin device at random virtual offsets, and fills them with discarded-key
// noise (paper Sec. IV-B "Dummy Write").
//
// A nil policy reproduces stock dm-thin.
type DummyPolicy interface {
	// OnProvision is called with the id of the thin device that just
	// provisioned a block. It returns whether a dummy write fires, the
	// target thin id, and the number of noise blocks.
	OnProvision(thinID int) (target int, count int, fire bool)
}

// Options configures a pool.
type Options struct {
	// Allocator picks free blocks; nil selects the stock sequential
	// allocator.
	Allocator Allocator
	// Policy is the dummy-write policy; nil disables dummy writes.
	Policy DummyPolicy
	// Entropy supplies noise for dummy blocks; nil selects the system
	// CSPRNG.
	Entropy prng.Entropy
	// DummySrc drives random virtual-offset choice for dummy mappings;
	// nil seeds from Entropy.
	DummySrc *prng.Source
	// Flight, when set, receives request-lifecycle events from the pool's
	// internal stages (map-resolve, provision, commit-join, commit-flip).
	// It should be the same recorder the I/O scheduler above and the
	// data-path StatsDevice below use, so one request id threads the
	// whole stack. Events carry stage, op kind, block COUNTS and the
	// commit round only — never block addresses or thin ids — so the
	// stream stays deniability-safe (see DESIGN.md "Observability"). nil,
	// or a disabled recorder, costs one atomic load per hook.
	Flight *obs.FlightRecorder
}

func (o *Options) fill() {
	if o.Allocator == nil {
		o.Allocator = NewSequentialAllocator()
	}
	if o.Entropy == nil {
		o.Entropy = prng.SystemEntropy()
	}
	if o.DummySrc == nil {
		seed, err := prng.Bytes(o.Entropy, 8)
		if err != nil {
			// Entropy implementations in this repository cannot fail;
			// fall back to a fixed seed rather than crash the pool.
			o.DummySrc = prng.NewSource(0x6d6f6269)
			return
		}
		o.DummySrc = prng.NewSource(getUint64(seed))
	}
}

// thinMeta is the pool-side record of one thin device.
type thinMeta struct {
	// mu is the thin lock. A fine-grained caller (holding Pool.mu shared)
	// reads the page table under it shared and mutates the page table and
	// delta bookkeeping under it exclusively; exclusive holders of Pool.mu
	// own the state outright but still take it for uniformity.
	//
	// Every read request writes the lock's reader count. The padding keeps
	// the lock off the cache lines of the fields below, which every request
	// reads, and off whatever heap object sits next to this record. Without
	// it, how often concurrent readers of one thin missed on pt and
	// virtBlocks depended on where in a line the record was allocated,
	// which differs from run to run.
	_  [cacheLine]byte
	mu sync.RWMutex
	_  [cacheLine]byte
	// guard is the transfer guard. A write holds it shared from its final
	// mapping walk until its data has landed, and drops the thin lock
	// before the transfer; every unmap (discardThinLocked) takes it
	// exclusively while holding mu exclusively, so a block is never freed,
	// and handed to another thin, under a write in flight. A writer takes
	// it under mu shared, where no exclusive holder can exist, so it never
	// waits. Every write writes its reader count, hence its own lines.
	guard      sync.RWMutex
	_          [cacheLine]byte
	id         int
	virtBlocks uint64
	// pt maps virtual to physical blocks — a dense page table, so the
	// per-block hot path is array indexing and marshaling walks entries in
	// vblock order without sorting. It also carries the thin's delta for
	// the flat-cost metadata commit: the entries that appeared or
	// disappeared since the last commit, as bits beside each leaf
	// (pageTable.noteMapped). The thin's segment is dirty exactly when the
	// delta is non-empty. segOff/segLen locate the thin's marshaled segment
	// inside the pool's metadata image arena.
	pt     *pageTable
	segOff int
	segLen int
}

// cacheLine is the coherence granule padded around the thin lock: 64 bytes
// on amd64 and on most arm64 cores.
const cacheLine = 64

// maxOvercommit bounds a thin's virtual size as a multiple of the pool's
// data blocks. A thin's page table is sized by its virtual size up front,
// so the bound is what keeps an image read at open from sizing memory.
const maxOvercommit = 1 << 16

// virtSizeOK reports whether a thin of virt blocks is within maxOvercommit
// of a pool of dataBlocks.
func virtSizeOK(virt, dataBlocks uint64) bool {
	return virt/maxOvercommit <= dataBlocks
}

// newThinMeta returns an empty record for a thin of the given geometry.
func newThinMeta(id int, virtBlocks uint64) *thinMeta {
	return &thinMeta{
		id:         id,
		virtBlocks: virtBlocks,
		pt:         newPageTable(virtBlocks),
	}
}

// lock takes the thin lock exclusively, polling for spin.Budget before
// parking.
func (tm *thinMeta) lock() {
	if !spin.Acquire(tm.mu.TryLock) {
		tm.mu.Lock()
	}
}

// rlock takes the thin lock shared, polling for spin.Budget before parking.
func (tm *thinMeta) rlock() {
	if !spin.Acquire(tm.mu.TryRLock) {
		tm.mu.RLock()
	}
}

// dirty reports whether tm's mappings changed since its segment was last
// marshaled into the arena.
func (tm *thinMeta) dirty() bool { return tm.pt.dirty() }

// mapSet maps vb to pb and records the new entry in the delta.
func (tm *thinMeta) mapSet(vb, pb uint64) {
	tm.pt.set(vb, pb)
	tm.pt.noteMapped(vb)
}

// mapDelete unmaps vb and records the removal in the delta, reporting
// whether it was mapped.
func (tm *thinMeta) mapDelete(vb uint64) bool {
	if !tm.pt.delete(vb) {
		return false
	}
	tm.pt.noteUnmapped(vb)
	return true
}

// Pool is the thin-pool target: data device + metadata device + global
// bitmap + per-thin mappings. Pool is safe for concurrent use.
//
// Locking is decomposed so concurrent callers only contend where they
// genuinely share state:
//
//   - mu, a sync.RWMutex, is the pool-global lock. Exclusive holders
//     (thin create/delete, discard, the commit's fold and flip phases, the
//     exclusive write fallback) own everything. SHARED holders — all thin
//     I/O, including provisioning writes — own nothing by themselves:
//     under RLock, per-thin mapping state is guarded by the thin lock
//     (thinMeta.mu) and allocator state (both bitmaps, the transaction
//     record, dirtyBM) by allocMu. The invariant: thin- or allocMu-guarded
//     state is touched only while holding (mu shared + the inner lock) or
//     mu exclusively. Since every fine-grained writer holds mu shared for
//     the duration, an exclusive acquisition is still the pool-wide
//     quiescence point the commit flip and discard/reallocation atomicity
//     rely on.
//   - Each thin also has a transfer guard (thinMeta.guard): a write's data
//     transfer holds it shared in place of the thin lock, and every unmap
//     takes it exclusively under the thin lock, so a provisioning writer
//     waits only for walks and mapping changes, never for a neighbour's
//     transfer. Reads and dummy bursts keep their thin lock across their
//     transfers.
//   - Lock order: mu ≻ thin ≻ guard ≻ alloc ≻ leaves (noise stage,
//     dummyMu, allocator, policy). At most one thin lock is held at a time
//     — a dummy burst releases the triggering thin's lock before locking
//     the target's.
//   - commitMu serializes the commit machinery (the image arena, the
//     per-slot pending sets, the slot device writes). Commit holds mu only
//     while folding the delta into the arena — the only time the arena is
//     written — and while flipping the active slot; the metadata device
//     I/O in between reads the arena under commitMu alone, so reads and
//     writes proceed while a commit is in flight.
//   - doorMu guards the group-commit door: concurrent committers park at
//     the door and one leader folds every parked caller's delta into a
//     single A/B slot flip (see Commit). The leader's phase 1 reads each
//     thin's own delta (thinMeta.dirty) under mu exclusively, so writers
//     record nothing beyond the mapping change itself.
type Pool struct {
	mu sync.RWMutex
	// Every request read-locks mu, writing its reader count; the padding
	// keeps the fields below, which every request reads, off that line.
	_    [cacheLine]byte
	data storage.Device
	// blockSize is data's block size, read once.
	blockSize int
	meta      storage.Device
	bm        *Bitmap
	thins     map[int]*thinMeta
	opts      Options
	txID      uint64
	// allocMu guards bm, allocBM, txAlloc, txFree and dirtyBM for
	// fine-grained writers (mu shared); exclusive holders of mu own them
	// outright.
	allocMu sync.Mutex
	// The transaction record: blocks allocated since the last commit (the
	// paper's fix for the transaction problem, Sec. V-A) and blocks freed
	// from *committed* state, quarantined until the free is durable.
	// allocBM is the allocator's view: bm plus the quarantine. The last
	// durable metadata still maps quarantined blocks, so reusing one before
	// the free commits would let a crash rollback resurrect a committed
	// mapping that now points at another volume's fresh data. Blocks
	// allocated and freed within the same transaction are exempt — no
	// committed mapping references them. Both are dense sets over the data
	// blocks; spareAlloc and spareFree are cleared sets the commit swaps
	// in when it detaches the record, so no round allocates or regrows one.
	txAlloc, txFree       *blockSet
	spareAlloc, spareFree *blockSet
	allocBM               *Bitmap
	// inFlightAlloc is the detached txAlloc of a commit whose slot I/O is
	// in flight: those allocations are not durable until the flip, so
	// PendingAllocations keeps counting them. Non-nil only between a
	// commit's phase 1 and phase 3.
	inFlightAlloc *blockSet

	// dummyMu serializes draws from opts.DummySrc (a bare prng.Source, not
	// thread-safe) across concurrent dummy bursts.
	dummyMu sync.Mutex

	// commitMu serializes commits end to end: arena patching, slot device
	// writes, and the per-slot pending bookkeeping. It is held across the
	// metadata device I/O so mu can be released there.
	commitMu sync.Mutex
	// doorMu guards the group-commit door state below. A committer finding
	// batch non-nil parks on it and is covered by that batch's leader; the
	// leader detaches the batch (under doorMu) only after acquiring
	// commitMu, so every parked caller's mutations happened-before the
	// leader's snapshot. Commit call/flip counts live in m (PoolMetrics);
	// their ratio is the group commit's folding factor.
	doorMu sync.Mutex
	batch  *commitBatch
	// mutators counts fine-path mutating requests (vec writes, discards)
	// currently between their API boundary and their unlock — the
	// jbd2 t_updates analogue. A group-commit leader that just acquired
	// commitMu yields while it is non-zero (bounded, see doorHoldSpins):
	// those requests are microseconds from the commit door, and holding the
	// door for them turns N trickling rounds into one big fold.
	mutators atomic.Int64

	// Flat-cost commit state. image is the assembled metadata image as a
	// persistent mutable arena: commits apply dirty bitmap words and
	// per-thin segment deltas in place instead of reassembling it, and
	// derive the changed meta-block set analytically. segIDs orders the
	// per-thin segments inside the arena; blockSums caches one CRC64 per
	// image block so the superblock's image checksum folds in O(blocks)
	// instead of re-hashing the whole image. pending[slot] tracks the meta
	// blocks of each A/B slot whose on-disk bytes have diverged from the
	// arena since that slot was last written — the replacement for the
	// whole-image byte diff. active names the slot holding the last
	// committed image; structDirty forces a full arena rebuild (thin
	// created/deleted); recovery records the A/B slot selection of the
	// last load.
	active      int
	image       []byte
	segIDs      []int
	blockSums   []uint64
	crcFold     *crcBlockFolder
	pending     [2]*metaDirty
	changed     *metaDirty
	scratch     []byte
	superBuf    []byte
	dirtyBM     *blockSet // bitmap words changed since the last fold
	structDirty bool
	recovery    Recovery
	// insBuf and delBuf hold one thin's added and removed vblocks, in
	// order, while a fold patches or splices its segment.
	insBuf, delBuf []uint64

	// Health ladder state (mode.go). mode only escalates, except the
	// documented OutOfDataSpace→Write recovery; modeReason records why the
	// last degradation happened.
	mode       PoolMode
	modeReason string

	// DummyBlocksWritten counts noise blocks produced by the dummy-write
	// mechanism; experiments read it for write-amplification accounting.
	// Atomic: dummy bursts run under a thin lock, not the exclusive pool
	// lock.
	dummyBlocksWritten atomic.Uint64

	// stage holds pre-generated dummy-write noise payloads. Writers refill
	// it before entering the exclusive mapping lock (stageNoise), so the
	// keystream generation for MobiCeal-policy dummy writes happens outside
	// the writer critical section; dummyWriteLocked consumes staged blocks
	// and only generates inline when the stage runs dry mid-burst.
	stage noiseStage

	// m is the pool's obs-backed telemetry (metrics.go). Memory-only, like
	// everything in obs; the zero value is ready, so pools constructed
	// anywhere — including tests building Pool literals — carry it.
	m PoolMetrics

	// flight is the request-lifecycle recorder (Options.Flight; nil is a
	// valid always-disabled recorder). commitRound numbers group-commit
	// rounds so commit-join and commit-flip events of one round share an
	// Aux value the offline analyzer can re-associate.
	flight      *obs.FlightRecorder
	commitRound atomic.Uint64
}

// noiseStage is the pre-generated dummy-noise buffer stock, guarded by its
// own mutex so refills never touch the pool's mapping lock. Consumed
// buffers come back through free and are refilled with fresh keystream by
// the next stageNoise, so steady-state dummy traffic allocates nothing.
type noiseStage struct {
	mu   sync.Mutex
	bufs [][]byte
	free [][]byte
}

// noiseStageTarget is how many noise blocks stageNoise keeps stocked — a
// couple of exponential dummy bursts' worth at the paper's lambda values.
const noiseStageTarget = 64

// stageNoise refills the noise stage up to noiseStageTarget blocks. It is
// called WITHOUT the pool's mapping lock, immediately before a provisioning
// pass takes it, so the AES key schedule and keystream generation for the
// policy's dummy writes are off the writer critical section. Pools without
// a dummy policy never stage. Generation failures are ignored — the
// consumer falls back to inline generation under the lock, as before.
func (p *Pool) stageNoise() {
	if p.opts.Policy == nil {
		return
	}
	p.stage.mu.Lock()
	need := noiseStageTarget - len(p.stage.bufs)
	if need <= 0 {
		p.stage.mu.Unlock()
		return
	}
	// Reuse consumed buffers: their old keystream is overwritten below.
	// The kept prefix has its capacity clipped so a concurrent
	// recycleNoise append reallocates instead of writing header slots the
	// detached tail still references outside the lock.
	reuse := p.stage.free
	if n := len(reuse) - need; n > 0 {
		p.stage.free = reuse[:n:n]
		reuse = reuse[n:]
	} else {
		p.stage.free = nil
	}
	p.stage.mu.Unlock()
	burst, err := xcrypto.NewNoiseStream(p.opts.Entropy)
	if err != nil {
		p.recycleNoise(reuse...)
		return
	}
	bs := p.data.BlockSize()
	fresh := make([][]byte, need)
	for i := range fresh {
		if i < len(reuse) {
			fresh[i] = reuse[i]
		} else {
			fresh[i] = storage.AlignedBuf(bs)
		}
		burst.Fill(fresh[i])
	}
	p.stage.mu.Lock()
	// Concurrent refills may have raced ahead while this one generated;
	// cap at the target so the stage's memory stays bounded. The excess
	// keystream was never observed, so recycling the buffers has no
	// distinguishability consequence.
	if room := noiseStageTarget - len(p.stage.bufs); room < len(fresh) {
		if room < 0 {
			room = 0
		}
		excess := fresh[room:]
		fresh = fresh[:room]
		if spare := noiseStageTarget - len(p.stage.free); spare > 0 {
			if spare > len(excess) {
				spare = len(excess)
			}
			p.stage.free = append(p.stage.free, excess[:spare]...)
		}
	}
	p.stage.bufs = append(p.stage.bufs, fresh...)
	p.m.NoiseStaged.Set(int64(len(p.stage.bufs)))
	p.stage.mu.Unlock()
}

// recycleNoise returns consumed (or unused) stage buffers to the free
// list, bounded so the stage's total memory stays O(noiseStageTarget).
func (p *Pool) recycleNoise(bufs ...[]byte) {
	if len(bufs) == 0 {
		return
	}
	p.stage.mu.Lock()
	if spare := noiseStageTarget - len(p.stage.free); spare > 0 {
		if spare > len(bufs) {
			spare = len(bufs)
		}
		p.stage.free = append(p.stage.free, bufs[:spare]...)
	}
	p.stage.mu.Unlock()
}

// takeStagedNoise pops one staged noise block, or nil when the stage is
// dry. Safe to call under the pool's mapping lock — the stage has its own
// mutex and the pop is O(1).
func (p *Pool) takeStagedNoise() []byte {
	p.stage.mu.Lock()
	defer p.stage.mu.Unlock()
	n := len(p.stage.bufs)
	if n == 0 {
		return nil
	}
	b := p.stage.bufs[n-1]
	p.stage.bufs[n-1] = nil
	p.stage.bufs = p.stage.bufs[:n-1]
	p.m.NoiseStaged.Set(int64(n - 1))
	return b
}

// newPool builds the shell shared by CreatePool and OpenPool.
func newPool(data, meta storage.Device, opts Options) *Pool {
	n := data.NumBlocks()
	p := &Pool{
		data:        data,
		blockSize:   data.BlockSize(),
		meta:        meta,
		opts:        opts,
		thins:       make(map[int]*thinMeta),
		dirtyBM:     newBlockSet((n + 63) / 64),
		txAlloc:     newBlockSet(n),
		txFree:      newBlockSet(n),
		spareAlloc:  newBlockSet(n),
		spareFree:   newBlockSet(n),
		structDirty: true,
		flight:      opts.Flight,
	}
	slots := p.slotBlocks()
	p.pending[0] = newMetaDirty(slots)
	p.pending[1] = newMetaDirty(slots)
	p.changed = newMetaDirty(slots)
	// Until a slot is first written this session, its content is unknown
	// relative to the arena.
	p.pending[0].setAll()
	p.pending[1].setAll()
	p.crcFold = newCRCBlockFolder(meta.BlockSize())
	return p
}

// CreatePool formats meta and returns a fresh pool over data. Any previous
// metadata on the device is destroyed.
func CreatePool(data, meta storage.Device, opts Options) (*Pool, error) {
	opts.fill()
	p := newPool(data, meta, opts)
	p.bm = NewBitmap(data.NumBlocks())
	p.allocBM = NewBitmap(data.NumBlocks())
	// Start with slot 1 nominally active so the format commit below lands
	// transaction 1 in slot 0.
	p.active = 1
	if err := p.checkMetaCapacity(); err != nil {
		return nil, err
	}
	// Invalidate both superblocks first: whatever the device held before —
	// an older pool, or random fill — must not survive as a plausible slot.
	zero := make([]byte, meta.BlockSize())
	for slot := 0; slot < superSlots; slot++ {
		if err := meta.WriteBlock(uint64(slot), zero); err != nil {
			return nil, fmt.Errorf("thinp: clearing superblock %d: %w", slot, err)
		}
	}
	if err := p.commitOnce(nil); err != nil {
		return nil, fmt.Errorf("thinp: formatting metadata: %w", err)
	}
	p.recovery = Recovery{Slot: p.active, TxID: p.txID}
	p.m.Events.Append("format", fmt.Sprintf("pool formatted, tx %d in slot %d", p.txID, p.active))
	return p, nil
}

// OpenPool loads an existing pool from its devices.
func OpenPool(data, meta storage.Device, opts Options) (*Pool, error) {
	opts.fill()
	p := newPool(data, meta, opts)
	if err := p.load(); err != nil {
		return nil, err
	}
	p.allocBM = p.bm.Clone()
	p.m.Events.Append("open", fmt.Sprintf("pool opened, recovered tx %d from slot %d",
		p.recovery.TxID, p.recovery.Slot))
	return p, nil
}

// checkMetaCapacity verifies each metadata slot can hold the bitmap and a
// worst-case fully-mapped mapping table (the A/B commit needs room for two
// full images plus the two superblocks).
func (p *Pool) checkMetaCapacity() error {
	bs := p.meta.BlockSize()
	need := p.metaBytesWorstCase()
	have := int(p.slotBlocks()) * bs
	if need > have {
		return fmt.Errorf("%w: need %d bytes per slot, have %d", ErrMetaSpace, need, have)
	}
	return nil
}

func (p *Pool) metaBytesWorstCase() int {
	// bitmap + every data block mapped somewhere (16 bytes per entry) +
	// generous per-thin headers.
	return p.bmLen() + 16*int(p.data.NumBlocks()) + 64*64
}

func (p *Pool) bmLen() int { return int((p.data.NumBlocks()+63)/64) * 8 }

// DataDevice returns the pool's data device.
func (p *Pool) DataDevice() storage.Device { return p.data }

// FreeBlocks returns the number of unallocated data blocks.
func (p *Pool) FreeBlocks() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.bm.Free()
}

// AllocatedBlocks returns the number of allocated data blocks.
func (p *Pool) AllocatedBlocks() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.bm.Allocated()
}

// DummyBlocksWritten returns the cumulative count of dummy-write noise
// blocks.
func (p *Pool) DummyBlocksWritten() uint64 {
	return p.dummyBlocksWritten.Load()
}

// TransactionID returns the committed metadata transaction id.
func (p *Pool) TransactionID() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.txID
}

// Recovery returns the A/B slot selection performed when the pool was
// opened (or, for a fresh pool, the slot the format commit landed in).
func (p *Pool) Recovery() Recovery {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.recovery
}

// PendingAllocations returns the number of blocks allocated since the last
// durable commit (the transaction record of Sec. V-A). Allocations whose
// commit is mid-flight still count — they are not durable until the
// superblock flip lands.
func (p *Pool) PendingAllocations() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	n := p.txAlloc.len()
	if p.inFlightAlloc != nil {
		n += p.inFlightAlloc.len()
	}
	return n
}

// CreateThin registers a thin device with the given id and virtual size.
// Thin provisioning allocates no physical space at creation time — the
// property MobiCeal exploits to make hidden volumes free to create
// (Sec. V-A reason 1).
func (p *Pool) CreateThin(id int, virtBlocks uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMutableLocked(); err != nil {
		return err
	}
	if _, ok := p.thins[id]; ok {
		return fmt.Errorf("%w: id %d", ErrThinExists, id)
	}
	if !virtSizeOK(virtBlocks, p.data.NumBlocks()) {
		return fmt.Errorf("thinp: thin of %d blocks over a pool of %d exceeds the overcommit limit", virtBlocks, p.data.NumBlocks())
	}
	p.thins[id] = newThinMeta(id, virtBlocks)
	p.structDirty = true
	return nil
}

// DeleteThin removes a thin device, freeing all its blocks. Freed blocks
// also leave the pending-transaction record, exactly as discard does — a
// deleted-then-rolled-back transaction must not re-mark them allocated.
func (p *Pool) DeleteThin(id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkMutableLocked(); err != nil {
		return err
	}
	tm, ok := p.thins[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoSuchThin, id)
	}
	var relErr error
	tm.pt.forEach(func(_, pb uint64) bool {
		_, relErr = p.release(pb)
		return relErr == nil
	})
	if relErr != nil {
		return fmt.Errorf("thinp: freeing blocks of thin %d: %w", id, relErr)
	}
	// Same-transaction releases may have refilled the allocator's view.
	p.maybeRecoverSpaceLocked()
	delete(p.thins, id)
	p.structDirty = true
	return nil
}

// Thin returns the block-device view of thin device id.
func (p *Pool) Thin(id int) (*Thin, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if _, ok := p.thins[id]; !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchThin, id)
	}
	return &Thin{pool: p, id: id}, nil
}

// ThinIDs returns the sorted ids of all thin devices.
func (p *Pool) ThinIDs() []int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ids := make([]int, 0, len(p.thins))
	for id := range p.thins {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// MappedBlocks returns how many virtual blocks of thin id are provisioned.
func (p *Pool) MappedBlocks(id int) (uint64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	tm, ok := p.thins[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", ErrNoSuchThin, id)
	}
	tm.mu.RLock()
	defer tm.mu.RUnlock()
	return tm.pt.count, nil
}

// MappedVBlocks returns the sorted virtual block numbers provisioned for
// thin id. The garbage collector uses it to choose dummy blocks to reclaim.
func (p *Pool) MappedVBlocks(id int) ([]uint64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	tm, ok := p.thins[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchThin, id)
	}
	tm.mu.RLock()
	defer tm.mu.RUnlock()
	out := make([]uint64, 0, tm.pt.count)
	tm.pt.forEach(func(vb, _ uint64) bool {
		out = append(out, vb)
		return true
	})
	return out, nil
}

// CheckIntegrity verifies the pool's core invariants and returns an error
// describing the first violation found:
//
//  1. every mapped physical block is marked allocated in the bitmap,
//  2. no physical block is owned by two mappings,
//  3. the bitmap's allocation count equals the number of owned blocks
//     (no leaked allocations outside any mapping).
//
// Tests and the soak suite run this after every interesting transition; a
// real deployment would expose it as a thin_check-style tool. The lock is
// exclusive — fine-grained writers mutate page tables under thin locks
// while holding mu shared, and the checker needs a quiescent pool.
func (p *Pool) CheckIntegrity() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	owner := make(map[uint64]int, p.bm.Allocated())
	for id, tm := range p.thins {
		var vErr error
		tm.pt.forEach(func(vb, pb uint64) bool {
			if prev, dup := owner[pb]; dup {
				vErr = fmt.Errorf("thinp: block %d owned by thin %d and %d", pb, prev, id)
				return false
			}
			owner[pb] = id
			if !p.bm.IsAllocated(pb) {
				vErr = fmt.Errorf("thinp: thin %d maps vblock %d to free block %d", id, vb, pb)
				return false
			}
			if vb >= tm.virtBlocks {
				vErr = fmt.Errorf("thinp: thin %d maps out-of-range vblock %d", id, vb)
				return false
			}
			return true
		})
		if vErr != nil {
			return vErr
		}
	}
	if uint64(len(owner)) != p.bm.Allocated() {
		return fmt.Errorf("thinp: %d blocks allocated but %d owned (leak)",
			p.bm.Allocated(), len(owner))
	}
	return nil
}

// PhysicalBlocks returns the sorted physical block numbers owned by thin
// id. The multi-snapshot adversary reconstructs exactly this view from the
// plaintext metadata (Sec. IV-B allows it; the ownership is deniable).
func (p *Pool) PhysicalBlocks(id int) ([]uint64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	tm, ok := p.thins[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchThin, id)
	}
	tm.mu.RLock()
	defer tm.mu.RUnlock()
	out := make([]uint64, 0, tm.pt.count)
	tm.pt.forEach(func(_, pb uint64) bool {
		out = append(out, pb)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// flightID returns fid unchanged when the request is already tagged.
// Untagged calls (fid 0) get a fresh id while recording is enabled, so
// direct Pool/Thin entry points — bypassing the I/O scheduler — still
// produce complete per-call lifecycles. Returns 0 when recording is off:
// downstream stage hooks all guard on fid != 0, so a disabled recorder
// costs one atomic load here and nothing below.
func (p *Pool) flightID(fid uint64) uint64 {
	if fid != 0 {
		return fid
	}
	if p.flight.Enabled() {
		return p.flight.NextID()
	}
	return 0
}

// provisionVB maps a new physical block for (tm, vb) and runs the
// dummy-write policy, reporting whether THIS call provisioned the block
// (false when a racing writer already mapped it — the caller must not
// claim such a block for unwind). Caller holds p.mu in either mode and
// does NOT hold tm's lock; the function takes it for the mapping mutation
// and releases it before executing a dummy burst, so at most one thin lock
// is ever held (the burst locks the target thin's).
//
// Exclusive callers set exclusive so a real provisioning failure for lack
// of space degrades the pool to OutOfDataSpace in place; shared callers
// handle the mode transition themselves after dropping the read lock
// (noteNoSpace) — mode mutation needs mu exclusively.
func (p *Pool) provisionVB(tm *thinMeta, vb uint64, exclusive bool, fid uint64) (bool, error) {
	tm.lock()
	if tm.pt.mapped(vb) {
		tm.mu.Unlock()
		return false, nil
	}
	pb, err := p.allocate(fid)
	if err != nil {
		tm.mu.Unlock()
		if exclusive && errors.Is(err, ErrNoSpace) {
			// Real provisioning failed for lack of space: the pool enters
			// OutOfDataSpace (dummy-write allocation failures stay silent —
			// they are best-effort and never reach this path).
			p.enterNoSpaceLocked()
		}
		return false, err
	}
	tm.mapSet(vb, pb)
	var target, count int
	var fire bool
	if p.opts.Policy != nil {
		target, count, fire = p.opts.Policy.OnProvision(tm.id)
	}
	tm.mu.Unlock()
	if fire {
		if err := p.execDummy(target, count); err != nil {
			// Unwind this provision: a block left mapped with its data
			// never written would read back stale device content instead
			// of zeros.
			tm.mu.Lock()
			_ = p.discardThinLocked(tm, vb)
			tm.mu.Unlock()
			return false, fmt.Errorf("thinp: dummy write: %w", err)
		}
	}
	return true, nil
}

// execDummy performs one dummy write: count noise blocks into the target
// thin device at random unmapped virtual offsets, under the target thin's
// lock for the whole burst. Noise payloads come from the
// pre-generated stage when stocked (writers refill it outside the mapping
// locks via stageNoise); when the stage runs dry mid-burst, one throwaway
// keystream covers the rest of the burst inline (its key is discarded with
// the stream when the burst ends), so even the dry path costs one AES key
// schedule per burst instead of per block. Caller holds p.mu in either
// mode and no thin lock.
//
// The burst places every block first and then writes them all as ONE
// batch, exactly as a real multi-block write does (writeExtentsLocked).
// That is a deniability requirement, not an optimisation: were an 8-block
// hidden write one submission and an 8-block dummy burst eight, the
// device's syscall counters would tell them apart. Failure is
// prefix-shaped the same way: the blocks before the first failed one
// landed and stay, that one and every later one are unmapped — a mapped
// dummy block holding stale background content instead of keystream
// output would be distinguishable from real dummy data.
//
// Flight recording: each noise block gets a fresh request id and emits
// exactly the lifecycle a fresh single-block real write emits —
// provision (inside allocate), map-resolve once mapped, then the leaf
// devop — so an adversary reading the event stream cannot tell a dummy
// burst from real traffic by stage signature (the trace-deniability test
// pins this).
func (p *Pool) execDummy(target, count int) error {
	tm, ok := p.thins[target]
	if !ok {
		return fmt.Errorf("%w: dummy target %d", ErrNoSuchThin, target)
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	batch := getBatch()
	defer putBatch(batch)
	var vbArr [16]uint64
	vbs := vbArr[:0] // vbs[i] is the vblock batch.reqs[i] fills
	// unplace unmaps the placed blocks from index from on and hands every
	// noise buffer back to the stage for the next refill to overwrite.
	unplace := func(from int) {
		for _, vb := range vbs[from:] {
			_ = p.discardThinLocked(tm, vb)
		}
		for i := range batch.reqs {
			p.recycleNoise(batch.reqs[i].Vec.Seg(0))
		}
	}
	bs := p.data.BlockSize()
	var burst *xcrypto.NoiseStream
	for i := 0; i < count; i++ {
		if tm.pt.count >= tm.virtBlocks || p.bm.Free() == 0 {
			// Target volume or pool is full; a real deployment relies on
			// garbage collection to make room (Sec. IV-D). Stop quietly —
			// dummy writes are best-effort obfuscation.
			break
		}
		vb, ok := p.randomUnmappedVBlock(tm)
		if !ok {
			break
		}
		bfid := p.flightID(0)
		pb, err := p.allocate(bfid)
		if err != nil {
			break // pool filled up mid-write; same best-effort rule
		}
		tm.mapSet(vb, pb)
		vbs = append(vbs, vb)
		if bfid != 0 {
			// Same stage order as a real fresh write: provision (above),
			// then map-resolve, then the device write below.
			p.flight.Record(bfid, obs.StageMapResolve, obs.FOpWrite, 1, obs.ClassNone, 0)
		}
		noise := p.takeStagedNoise()
		if noise == nil {
			if burst == nil {
				if burst, err = xcrypto.NewNoiseStream(p.opts.Entropy); err != nil {
					unplace(0) // nothing has been written yet
					return fmt.Errorf("thinp: generating noise: %w", err)
				}
			}
			// The blocks of a burst are in flight together, so each needs
			// a payload buffer of its own.
			noise = storage.AlignedBuf(bs)
			burst.Fill(noise)
		}
		batch.reqs = append(batch.reqs, storage.Req{Op: storage.OpWrite, Start: pb, Vec: storage.VecOne(bs, noise), FID: bfid})
	}
	werr := storage.Do(p.data, batch.reqs)
	landed := storage.FirstFailed(batch.reqs)
	p.dummyBlocksWritten.Add(uint64(landed))
	// The device copied (or rejected) the payloads.
	unplace(landed)
	if werr != nil {
		return fmt.Errorf("thinp: writing noise block %d: %w", batch.reqs[landed].Start, werr)
	}
	return nil
}

// randomUnmappedVBlock picks a uniformly random unmapped virtual block of
// tm. It samples up to 64 times; on dense volumes, where sampling keeps
// hitting mapped blocks, it draws one rank over the unmapped population and
// selects it through the page table's occupancy counts — O(log leaves), so
// late dummy writes on large, nearly-full volumes cost the same as early
// ones instead of degrading toward a full scan. Caller holds tm's thin
// lock (the page table is stable); dummyMu serializes the source draws
// across concurrent bursts.
func (p *Pool) randomUnmappedVBlock(tm *thinMeta) (uint64, bool) {
	if tm.pt.count >= tm.virtBlocks {
		return 0, false
	}
	p.dummyMu.Lock()
	defer p.dummyMu.Unlock()
	for i := 0; i < 64; i++ {
		vb := p.opts.DummySrc.Uint64n(tm.virtBlocks)
		if !tm.pt.mapped(vb) {
			return vb, true
		}
	}
	return tm.pt.selectUnmapped(p.opts.DummySrc.Uint64n(tm.virtBlocks - tm.pt.count))
}

// discardThinLocked unmaps (tm, vblock) and frees its physical block.
// Caller holds tm's thin lock exclusively (plus p.mu in either mode). The
// unmap takes tm's transfer guard exclusively, so it waits out every write
// of tm still transferring: such a write resolved its blocks under the
// thin lock, then dropped it, and a block freed under it could be
// allocated to another thin and written there before this write lands.
// Space recovery is the caller's responsibility: exclusive contexts run
// maybeRecoverSpaceLocked after their batch, shared contexts poke
// maybeRecoverSpace after dropping the read lock.
func (p *Pool) discardThinLocked(tm *thinMeta, vblock uint64) error {
	pb, ok := tm.pt.get(vblock)
	if !ok {
		return nil // discard of an unprovisioned block is a no-op
	}
	if !spin.Acquire(tm.guard.TryLock) {
		tm.guard.Lock()
	}
	defer tm.guard.Unlock()
	tm.mapDelete(vblock)
	if _, err := p.release(pb); err != nil {
		return fmt.Errorf("thinp: freeing block %d: %w", pb, err)
	}
	return nil
}

// discardLocked unmaps (thin, vblock) and frees its physical block,
// running space recovery. Caller holds p.mu exclusively.
func (p *Pool) discardLocked(tm *thinMeta, vblock uint64) error {
	tm.mu.Lock()
	err := p.discardThinLocked(tm, vblock)
	tm.mu.Unlock()
	if err == nil {
		// An allocator-visible block may have come back: an
		// out-of-data-space pool recovers to Write.
		p.maybeRecoverSpaceLocked()
	}
	return err
}
