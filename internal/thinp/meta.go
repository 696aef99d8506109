package thinp

import (
	"bytes"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"mobiceal/internal/crc"
	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
)

// Metadata layout v2 on the metadata device — A/B shadow images:
//
//	block 0:           superblock, slot 0
//	block 1:           superblock, slot 1
//	blocks 2..2+S:     image slot 0
//	blocks 2+S..2+2S:  image slot 1      (S = (metaBlocks-2)/2)
//
// Each image packs: bitmap (one bit per data block) | per thin: id u32 |
// virtBlocks u64 | mapCount u64 | mapCount * (vblock u64, pblock u64),
// sorted by vblock. Each superblock carries:
//
//	magic u64 | version u32 | blockSize u32 | dataBlocks u64 | txID u64 |
//	thinCount u32 | pad u32 | imageLen u64 | imageSum u64 | selfSum u64
//
// A commit lands the image delta in the INACTIVE slot, syncs, then writes
// that slot's superblock — carrying the new transaction id, the image
// checksum and its own checksum — and syncs again. That single-block
// superblock write is the atomic commit point: recovery (OpenPool) reads
// both superblocks, discards any whose checksums fail to validate, and
// loads the valid slot with the highest transaction id. A power cut at any
// device write — including one that tears a block in half — therefore lands
// the pool in exactly the pre-commit or post-commit state, never in
// between.
//
// The in-memory source of truth for the image is a persistent mutable
// arena (Pool.image): commits patch dirty bitmap words and per-thin
// segment deltas in place and compute the changed meta-block set
// analytically — dirty-word indexes, patched entry positions, and the
// shifted suffix when a segment changes length — so commit CPU cost is
// O(delta + shifted suffix), flat in the pool's total metadata. Because
// alternate commits land in alternate slots, each slot also carries a
// pending set of blocks whose on-disk bytes have diverged from the arena
// since that slot was last written; a commit writes its own changes plus
// the target slot's pending set, which is exactly the role the whole-image
// byte diff used to play at O(total) cost.
//
// Everything is plaintext: the paper's threat model explicitly allows the
// adversary to read the global bitmap and the per-volume mappings (Sec.
// IV-B "the system keeps the metadata in a known location and the adversary
// can have access to them"). The checksums exist for crash detection, not
// secrecy — deniability must not depend on metadata secrecy, and
// hidden-volume entries remain indistinguishable from dummy-volume entries,
// which the adversary package verifies.

const (
	superLen = 8 + 4 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8
	// superSlots is the number of superblock/image slot pairs.
	superSlots = 2
	// Byte offsets within a marshaled superblock.
	superTxOff      = 24
	superCountOff   = 32
	superImgLenOff  = 40
	superImgSumOff  = 48
	superSelfSumOff = 56
)

// The superblock and image checksums are crc.Checksum (CRC64/ECMA — cheap,
// and torn-write detection needs error detection, not authentication).
//
// crcBlockFolder combines per-block CRC64 checksums into the checksum of
// the concatenated image, exploiting CRC linearity: for messages a and b,
// Checksum(a||b) = Checksum(b) XOR L(Checksum(a)), where L is the linear
// operator that advances a CRC register through len(b) zero bytes. The
// folder precomputes L for one metadata block as a 64x64 GF(2) matrix, so
// a commit that changed d blocks re-hashes only those blocks and folds the
// cached sums in O(imageBlocks) word operations — without this, sealing
// the superblock would re-hash the whole image and put an O(total
// metadata) term back on the commit path.
type crcBlockFolder struct {
	op [64]uint64 // column j holds L(1<<j)
	// tab is op in byte-sliced form — tab[i][b] = op applied to byte b at
	// byte position i — so folding one block is 8 table lookups instead of
	// a 64-iteration matrix-vector product.
	tab [8][256]uint64
}

// newCRCBlockFolder builds the zero-advance operator for blockSize bytes
// by squaring the one-byte operator.
func newCRCBlockFolder(blockSize int) *crcBlockFolder {
	// One zero byte advances a raw (uninverted) CRC register c to
	// crc.Table[byte(c)] ^ (c >> 8); CRC tables are GF(2)-linear, so the
	// step is a linear operator we can exponentiate.
	var one [64]uint64
	for j := 0; j < 64; j++ {
		c := uint64(1) << j
		one[j] = crc.Table[byte(c)] ^ (c >> 8)
	}
	var acc [64]uint64
	for j := range acc {
		acc[j] = 1 << j // identity
	}
	sq := one
	for e := blockSize; e > 0; e >>= 1 {
		if e&1 == 1 {
			acc = crcMatMul(&sq, &acc)
		}
		sq = crcMatMul(&sq, &sq)
	}
	f := &crcBlockFolder{op: acc}
	for i := 0; i < 8; i++ {
		for b := 0; b < 256; b++ {
			f.tab[i][b] = crcMatApply(&f.op, uint64(b)<<(8*i))
		}
	}
	return f
}

// apply advances c through one block of zero bytes via the byte tables.
func (f *crcBlockFolder) apply(c uint64) uint64 {
	return f.tab[0][byte(c)] ^ f.tab[1][byte(c>>8)] ^ f.tab[2][byte(c>>16)] ^
		f.tab[3][byte(c>>24)] ^ f.tab[4][byte(c>>32)] ^ f.tab[5][byte(c>>40)] ^
		f.tab[6][byte(c>>48)] ^ f.tab[7][byte(c>>56)]
}

// crcMatApply multiplies matrix m by vector c over GF(2).
func crcMatApply(m *[64]uint64, c uint64) uint64 {
	var r uint64
	for i := 0; c != 0; i++ {
		if c&1 != 0 {
			r ^= m[i]
		}
		c >>= 1
	}
	return r
}

// crcMatMul composes two operators: (a∘b)[j] = a(b[j]).
func crcMatMul(a, b *[64]uint64) [64]uint64 {
	var r [64]uint64
	for j := range b {
		r[j] = crcMatApply(a, b[j])
	}
	return r
}

// fold returns crc.Checksum of the concatenation of the equally-sized
// blocks whose individual checksums are sums.
func (f *crcBlockFolder) fold(sums []uint64) uint64 {
	if len(sums) == 0 {
		return 0
	}
	c := sums[0]
	for _, s := range sums[1:] {
		c = f.apply(c) ^ s
	}
	return c
}

// resetSet empties a delta set. A set that just carried a large delta is
// reallocated rather than cleared: Go's map clear walks the map's grown
// bucket array, so clearing a once-large map would put an O(largest
// historical delta) term on every later commit.
func resetSet[K comparable](m *map[K]struct{}) {
	if len(*m) > 256 {
		*m = make(map[K]struct{})
	} else {
		clear(*m)
	}
}

// metaDirty is a bitset over the meta blocks of one image slot, tracking
// which blocks must be (re)written.
type metaDirty struct {
	words []uint64
	n     uint64
}

func newMetaDirty(nblocks uint64) *metaDirty {
	return &metaDirty{words: make([]uint64, (nblocks+63)/64), n: nblocks}
}

func (m *metaDirty) mark(b uint64) {
	if b < m.n {
		m.words[b/64] |= 1 << (b % 64)
	}
}

// markRange marks blocks [from, to).
func (m *metaDirty) markRange(from, to uint64) {
	for b := from; b < to; b++ {
		m.mark(b)
	}
}

func (m *metaDirty) setAll() {
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	if tail := m.n % 64; tail != 0 && len(m.words) > 0 {
		m.words[len(m.words)-1] &= (1 << tail) - 1
	}
}

func (m *metaDirty) clearAll() {
	clear(m.words)
}

// or merges o's marks into m.
func (m *metaDirty) or(o *metaDirty) {
	for i := range m.words {
		m.words[i] |= o.words[i]
	}
}

// clearBelow clears every mark below limit.
func (m *metaDirty) clearBelow(limit uint64) {
	full := limit / 64
	for i := uint64(0); i < full && int(i) < len(m.words); i++ {
		m.words[i] = 0
	}
	if int(full) < len(m.words) && limit%64 != 0 {
		m.words[full] &^= (1 << (limit % 64)) - 1
	}
}

// forEachRunBelow calls fn for each maximal run [start, end) of marked
// blocks below limit.
func (m *metaDirty) forEachRunBelow(limit uint64, fn func(start, end uint64) error) error {
	b := uint64(0)
	for b < limit {
		w := m.words[b/64] >> (b % 64)
		if w == 0 {
			b = (b/64 + 1) * 64
			continue
		}
		b += uint64(bits.TrailingZeros64(w))
		if b >= limit {
			break
		}
		start := b
		for b < limit && m.words[b/64]&(1<<(b%64)) != 0 {
			b++
		}
		if err := fn(start, b); err != nil {
			return err
		}
	}
	return nil
}

// markBytes marks the meta blocks covering image bytes [from, to).
func markBytes(m *metaDirty, from, to, bs int) {
	if to <= from {
		return
	}
	m.markRange(uint64(from/bs), uint64((to+bs-1)/bs))
}

// Recovery describes the A/B slot selection OpenPool performed when the
// pool was loaded, the mount-time recovery record a real deployment would
// log.
type Recovery struct {
	// Slot is the metadata slot the pool loaded (0 or 1).
	Slot int
	// TxID is the transaction id of the loaded image.
	TxID uint64
	// RolledBack reports that the other slot was discarded because it
	// failed validation (torn superblock, corrupt image) rather than for
	// simply being older — the signature of a commit interrupted by a
	// power cut, rolled back to the last durable transaction.
	RolledBack bool
	// Reason describes why the other slot was discarded, when it was.
	Reason string
}

// commitBatch is one round of the group-commit door: a leader plus every
// committer that parked while the leader was waiting its turn. The round's
// outcome is shared — the leader's single slot flip covers all of them.
type commitBatch struct {
	done chan struct{}
	err  error
	// round is the pool-lifetime sequence number of this group-commit
	// round (commitRound). Flight events of the round — every caller's
	// commit-join, the leader's commit-flip — carry it as Aux, so the
	// offline analyzer can reassemble which flip covered which callers.
	round uint64
	// joins counts committers that parked on this batch. The leader polls
	// it while deciding how long to hold the door open (see groupCommit):
	// it is written under doorMu but read outside it, hence atomic.
	joins atomic.Int64
}

// Commit persists the pool metadata transactionally: the transaction id is
// incremented, the updated image lands in the inactive metadata slot, and
// the slot's superblock write flips it active. Blocks allocated since the
// previous commit become durable; the in-memory transaction record is
// cleared. A crash before the superblock write leaves the previous commit
// intact; a crash after leaves this one — there is no intermediate state.
//
// Commit cost is flat in the pool size: the image arena is patched in
// place — O(delta) for bitmap words and discard+rewrite entry updates,
// plus the shifted suffix when a segment changes length — and only the
// meta blocks recorded as diverged reach the device.
//
// Concurrent commits group-commit: while one commit's device I/O is in
// flight, later committers park at the commit door, and the first of them
// leads a single follow-up commit whose one A/B slot flip covers every
// parked caller's delta. N concurrent commit-per-write writers therefore
// cost far fewer than N slot flips (PoolSnapshot.FoldRatio reports it),
// and each caller still gets full durability: its mutations
// happened-before it parked, and the leader snapshots the delta only
// after every parked caller joined.
//
// A commit reached through a traced sync request carries the request's
// flight id: the caller's park at the commit door records a commit-join,
// and — if this caller ends up leading the round — the successful flip
// records a commit-flip whose N is the number of callers the one A/B flip
// covered.
func (p *Pool) Commit() error { return p.groupCommit(0) }

// groupCommit is the commit door. The first committer through becomes the
// round's leader; committers arriving while the round has not yet started
// its delta snapshot join the leader's batch and simply wait. The batch
// stays open while the leader waits for the previous round's commitMu AND
// while it waits for the mapping lock inside commitOnce — the door only
// closes once the leader holds p.mu exclusively (second level of the
// two-level door). That matters under commit-per-write load: writers queue
// on the mapping lock behind the in-flight round, and with an early-closing
// door they would trickle into many small follow-up rounds; closing at the
// p.mu boundary folds everyone who finished writing by then into one flip.
// Correctness is unchanged: a joiner's mutations happened-before joining
// (doorMu), joining happened-before the door close (doorMu again), and the
// close happens-before the fold/detach under the same p.mu hold — so one
// flip durably covers the whole batch.
func (p *Pool) groupCommit(fid uint64) error {
	fid = p.flightID(fid)
	p.doorMu.Lock()
	p.m.CommitCalls.Inc()
	if b := p.batch; b != nil {
		b.joins.Add(1)
		round := b.round
		p.doorMu.Unlock()
		if fid != 0 {
			p.flight.Record(fid, obs.StageCommitJoin, obs.FOpSync, 0, obs.ClassNone, round)
		}
		<-b.done
		return b.err
	}
	b := &commitBatch{done: make(chan struct{}), round: p.commitRound.Add(1)}
	p.batch = b
	p.doorMu.Unlock()
	if fid != 0 {
		// The leader joins its own round; its join→flip span is the full
		// round latency, door hold included.
		p.flight.Record(fid, obs.StageCommitJoin, obs.FOpSync, 0, obs.ClassNone, b.round)
	}

	p.commitMu.Lock()
	// Door-hold: the leader yields while the batch is still filling — a
	// fine-path mutator in flight or a fresh joiner both mean more of the
	// current writer cohort is microseconds from this door, and starting
	// the round now would push each of them into a follow-up round (the
	// mapping lock inside commitOnce blocks them mid-request). The wait
	// ends when the batch stabilizes — doorHoldIdle consecutive yields
	// with no new joiner and no mutator in flight — or at the hard
	// doorHoldSpins cap. A lone committer sees no joiners and no
	// mutators, pays doorHoldIdle scheduler yields, and proceeds.
	idle, lastJoins := 0, int64(-1)
	for spin := 0; spin < doorHoldSpins && idle < doorHoldIdle; spin++ {
		if j := b.joins.Load(); j != lastJoins || p.mutators.Load() > 0 {
			lastJoins, idle = j, 0
		} else {
			idle++
		}
		runtime.Gosched()
	}
	b.err = p.commitOnce(b)
	if b.err == nil {
		// Count only flips that actually reached the device: a failed
		// round leaves the active slot untouched.
		p.m.CommitFlips.Inc()
		if fid != 0 {
			// N is how many Commit calls this one A/B flip covered
			// (leader + joiners) — the trace-side view of the fold ratio.
			p.flight.Record(fid, obs.StageCommitFlip, obs.FOpSync,
				uint32(b.joins.Load()+1), obs.ClassNone, b.round)
		}
	}
	p.commitMu.Unlock()
	close(b.done)
	return b.err
}

// Metadata slot writes retry transient device faults a few times before
// the commit gives up and degrades the pool: rewriting the dirty runs of
// an inactive slot is idempotent, so a controller hiccup should not cost
// the pool its write mode.
const (
	metaWriteAttempts = 4
	metaRetryDelay    = 200 * time.Microsecond
)

// doorHoldSpins caps how many scheduler yields a group-commit leader
// spends waiting for its batch to stabilize — the bound matters when a
// mutator blocks for longer than a request should take (e.g. in a slow
// device transfer) or a slow-commit workload trickles joiners forever.
// doorHoldIdle is how many consecutive quiet yields (no new joiner, no
// mutator in flight) count as stable; a lone committer pays exactly that
// many yields.
const (
	doorHoldSpins = 256
	doorHoldIdle  = 4
)

// commitOnce performs one commit round in three phases: fold the
// accumulated delta into the image arena under the mapping lock, write the
// inactive slot and its superblock with the mapping lock released (reads
// and writes proceed during the device I/O), then flip the active slot
// under the mapping lock again. One ownership rule covers the arena, its
// checksum cache, the pending sets and the superblock buffer: they belong
// to the commit in progress (commitMu), which writes the arena only in
// phase 1, while it also holds p.mu exclusively, and only reads it in
// phase 2. The caller must hold commitMu or have exclusive access to a
// pool under construction.
func (p *Pool) commitOnce(b *commitBatch) error {
	t0 := time.Now()
	p.mu.Lock()
	// Close the commit door now that the mapping lock is held: every
	// committer that joined b so far finished its mutations before joining,
	// and those mutations are visible to the fold below. Late arrivals
	// lead the next round. (b is nil for the format commit of a pool under
	// construction, which has no door.)
	if b != nil {
		p.doorMu.Lock()
		p.batch = nil
		p.doorMu.Unlock()
	}
	// A read-only or failed pool cannot make anything durable; refuse
	// before touching the transaction record. Out-of-data-space pools
	// still commit — that is how reclaim becomes durable.
	if err := p.checkMutableLocked(); err != nil {
		p.mu.Unlock()
		return err
	}
	// The new transaction id is published to p.txID only at the phase-3
	// flip: until the superblock lands, TransactionID() must keep
	// reporting the last durable transaction, not the one in flight.
	newTx := p.txID + 1
	changed := p.changed
	changed.clearAll()
	// Writers park on mu (held exclusively here), so every thin's delta
	// and dirtyBM are quiescent for the fold.
	switch {
	case p.structDirty || p.image == nil:
		// Structural change (thin created/deleted) or no arena yet:
		// rebuild the image from the page tables.
		if err := p.rebuildImageLocked(changed); err != nil {
			p.mu.Unlock()
			return err
		}
	case len(p.dirtyBM) == 0 && !p.anyThinDirtyLocked():
		// Nothing changed but the transaction id; the arena is current.
	default:
		if !p.applyDeltaLocked(changed) {
			// The in-place accounting lost sync with the arena (or the
			// image outgrew its slot): rebuild from the page tables and
			// treat every block as changed.
			changed.setAll()
			if err := p.rebuildImageLocked(changed); err != nil {
				p.mu.Unlock()
				return err
			}
		}
	}

	target := 1 - p.active
	writeSet := p.pending[target]
	nThins := len(p.thins)
	// Detach the transaction record: this commit makes exactly these
	// allocations and frees durable. Mutations that land while the slot
	// I/O is in flight accumulate in fresh maps (sized like this round's,
	// so they do not regrow under allocMu) and belong to the next
	// commit — including frees of the blocks detached here, which
	// quarantine as frees of committed state (their mappings are durable
	// the moment this commit's superblock lands). The detached record
	// stays visible through inFlightAlloc: the allocations are still
	// pending (not durable) until the flip, and PendingAllocations must
	// say so.
	committedAlloc, committedFree := p.txAlloc, p.txFree
	p.txAlloc = make(map[uint64]struct{}, len(committedAlloc))
	p.txFree = make(map[uint64]struct{}, len(committedFree))
	p.inFlightAlloc = committedAlloc
	p.mu.Unlock()
	// The arena is final for this round: from here to the flip it is only
	// read (superblock checksum fold, slot writes), under commitMu.
	writeSet.or(changed)
	nBlocks := uint64(len(p.image) / p.meta.BlockSize())
	super := p.marshalSuper(newTx, nThins)
	// Phase boundary: the delta fold is done, the slot I/O starts. The
	// whole round's latency lands in CommitTotalLat whichever way the I/O
	// goes, so the histogram also reflects failed rounds.
	p.m.CommitFoldLat.Since(t0)
	defer p.m.CommitTotalLat.Since(t0)
	tIO := time.Now()

	ioErr := p.writeSlot(target, nBlocks, writeSet, super)
	// Retry transient slot-write faults in place: the inactive slot's
	// dirty runs are rewritten wholesale, so the retry is idempotent and
	// a recovered hiccup leaves no trace but the delay.
	for attempt := 1; ioErr != nil && storage.IsTransient(ioErr) &&
		attempt < metaWriteAttempts; attempt++ {
		time.Sleep(time.Duration(attempt) * metaRetryDelay)
		ioErr = p.writeSlot(target, nBlocks, writeSet, super)
	}
	p.m.CommitWriteLat.Since(tIO)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.inFlightAlloc = nil
	if ioErr != nil {
		// The target slot's on-disk content is now unknown; rewrite it
		// wholesale next time. The active slot still diverges by this
		// commit's arena changes, the detached transaction record folds
		// back into the live one, and the transaction id stays put:
		// nothing became durable. (A later retry reuses the id against
		// the same slot, so no duplicate id can reach stable storage.)
		writeSet.setAll()
		p.pending[p.active].or(changed)
		maps.Copy(p.txAlloc, committedAlloc)
		maps.Copy(p.txFree, committedFree)
		// The metadata device will not take a commit: nothing new can
		// become durable, so the pool degrades to read-only. The merge-back
		// above left the in-memory delta intact, so reads keep serving the
		// current state and a reopen recovers the last durable transaction.
		p.setModeLocked(PoolReadOnly,
			fmt.Sprintf("metadata commit failed: %v", ioErr))
		return ioErr
	}
	writeSet.clearBelow(nBlocks)
	p.pending[p.active].or(changed)
	p.active = target
	p.txID = newTx
	// The frees are durable now: quarantined blocks return to the
	// allocator's view.
	for pb := range committedFree {
		if err := p.allocBM.Clear(pb); err != nil {
			// The superblock flip already landed but the allocator view
			// cannot be reconciled: in-memory state is no longer
			// trustworthy. Fail the pool — only a reopen, which reloads
			// the (fully durable) committed state, recovers.
			p.setModeLocked(PoolFail,
				fmt.Sprintf("post-commit bookkeeping: %v", err))
			return fmt.Errorf("thinp: releasing quarantined block %d: %w", pb, err)
		}
	}
	// Durable frees may have refilled the allocator's view.
	p.maybeRecoverSpaceLocked()
	return nil
}

// contentLenLocked returns the unpadded byte length of the current image
// content. Caller holds p.mu; the arena must be primed.
func (p *Pool) contentLenLocked() int {
	if len(p.segIDs) == 0 {
		return p.bmLen()
	}
	tm := p.thins[p.segIDs[len(p.segIDs)-1]]
	return tm.segOff + tm.segLen
}

// rebuildImageLocked reassembles the arena from the bitmap and the page
// tables, records the blocks that differ from the previous arena in
// changed, and resets all delta bookkeeping. Caller holds p.mu.
func (p *Pool) rebuildImageLocked(changed *metaDirty) error {
	bs := p.meta.BlockSize()
	ids := make([]int, 0, len(p.thins))
	size := p.bmLen()
	for id, tm := range p.thins {
		ids = append(ids, id)
		size += thinHeaderLen + 16*int(tm.pt.count)
	}
	sort.Ints(ids)
	padded := (size + bs - 1) / bs * bs
	if uint64(padded/bs) > p.slotBlocks() {
		return fmt.Errorf("%w: metadata image %d bytes", ErrMetaSpace, padded)
	}
	img := make([]byte, padded)
	off, err := p.bm.MarshalTo(img)
	if err != nil {
		// The buffer is sized from bmLen above; failure is impossible.
		panic("thinp: bitmap marshal sizing: " + err.Error())
	}
	for _, id := range ids {
		tm := p.thins[id]
		tm.segOff = off
		tm.segLen = marshalThinTo(img[off:], tm)
		off += tm.segLen
		resetSet(&tm.added)
		resetSet(&tm.removed)
	}
	p.segIDs = ids

	old := p.image
	nb := padded / bs
	for b := 0; b < nb; b++ {
		if old == nil || (b+1)*bs > len(old) ||
			!bytes.Equal(img[b*bs:(b+1)*bs], old[b*bs:(b+1)*bs]) {
			changed.mark(uint64(b))
		}
	}
	if old != nil && len(old) > padded {
		changed.markRange(uint64(padded/bs), uint64(len(old)/bs))
	}
	p.image = img
	p.refreshSums(changed)
	resetSet(&p.dirtyBM)
	p.structDirty = false
	return nil
}

// refreshSums re-hashes the image blocks recorded in changed into the
// per-block checksum cache, resizing the cache to the current image.
// Caller holds p.mu exclusively (commit phase 1) or is loading a pool
// under construction.
func (p *Pool) refreshSums(changed *metaDirty) {
	bs := p.meta.BlockSize()
	nb := len(p.image) / bs
	if cap(p.blockSums) < nb {
		ns := make([]uint64, nb)
		copy(ns, p.blockSums)
		p.blockSums = ns
	} else {
		p.blockSums = p.blockSums[:nb]
	}
	_ = changed.forEachRunBelow(uint64(nb), func(start, end uint64) error {
		for b := start; b < end; b++ {
			p.blockSums[b] = crc.Checksum(p.image[b*uint64(bs) : (b+1)*uint64(bs)])
		}
		return nil
	})
}

// anyThinDirtyLocked reports whether any thin's mappings changed since the
// last fold. Caller holds p.mu exclusively.
func (p *Pool) anyThinDirtyLocked() bool {
	for _, tm := range p.thins {
		if tm.dirty() {
			return true
		}
	}
	return false
}

// applyDeltaLocked patches the arena in place with everything recorded in
// dirtyBM and in each thin's own delta, marking the touched meta blocks in
// changed. It reports false when the arena and the bookkeeping disagree
// (caller falls back to a full rebuild) or the grown image would outgrow
// its slot. Caller holds p.mu exclusively.
func (p *Pool) applyDeltaLocked(changed *metaDirty) bool {
	bs := p.meta.BlockSize()

	// Size the post-delta image up front, before mutating anything.
	delta := 0
	for _, tm := range p.thins {
		if tm.dirty() {
			delta += thinHeaderLen + 16*int(tm.pt.count) - tm.segLen
		}
	}
	oldContent := p.contentLenLocked()
	newContent := oldContent + delta
	newPadded := (newContent + bs - 1) / bs * bs
	if uint64(newPadded/bs) > p.slotBlocks() {
		return false
	}

	// Dirty bitmap words patch in place; their positions are fixed.
	if !p.patchBitmapLocked(changed) {
		return false
	}

	// Classify dirty thins: a thin whose adds exactly equal its removes
	// was discarded-and-reprovisioned at the same vblocks — entry
	// positions are unchanged and the new physical blocks patch in place.
	// Anything else changes its segment length or entry positions and
	// goes through the suffix splice.
	var splice []int
	for id, tm := range p.thins {
		if !tm.dirty() {
			continue
		}
		pure := len(tm.added) == len(tm.removed)
		if pure {
			for vb := range tm.added {
				if _, ok := tm.removed[vb]; !ok {
					pure = false
					break
				}
			}
		}
		if pure {
			if !p.patchEntriesLocked(tm, changed) {
				return false
			}
		} else {
			splice = append(splice, id)
		}
	}
	if len(splice) == 0 {
		p.refreshSums(changed)
		return true
	}
	sort.Ints(splice)
	if !p.spliceSegmentsLocked(splice, oldContent, newContent, newPadded, changed) {
		return false
	}
	p.refreshSums(changed)
	return true
}

// patchBitmapLocked patches every dirty bitmap word into the arena and
// marks the touched meta blocks in changed, reporting false — before
// touching anything — when a word falls outside the bitmap region (caller
// rebuilds). Caller holds p.mu exclusively, so the bitmap words and the
// arena are quiescent.
func (p *Pool) patchBitmapLocked(changed *metaDirty) bool {
	bs := p.meta.BlockSize()
	for w := range p.dirtyBM {
		if int(w)*8+8 > p.bmLen() {
			return false
		}
	}
	for w := range p.dirtyBM {
		putUint64(p.image[w*8:], p.bm.words[w])
		markBytes(changed, int(w)*8, int(w)*8+8, bs)
	}
	resetSet(&p.dirtyBM)
	return true
}

// patchEntriesLocked rewrites the physical block of every updated entry of
// tm in place. Caller holds p.mu.
func (p *Pool) patchEntriesLocked(tm *thinMeta, changed *metaDirty) bool {
	bs := p.meta.BlockSize()
	for vb := range tm.added {
		pb, ok := tm.pt.get(vb)
		if !ok {
			return false
		}
		pos := tm.segOff + thinHeaderLen + 16*int(tm.pt.rank(vb))
		if pos+16 > tm.segOff+tm.segLen || getUint64(p.image[pos:]) != vb {
			return false
		}
		putUint64(p.image[pos+8:], pb)
		markBytes(changed, pos+8, pos+16, bs)
	}
	resetSet(&tm.added)
	resetSet(&tm.removed)
	return true
}

// spliceSegmentsLocked rebuilds the arena from the first byte any
// length-changing segment actually touches: the affected old suffix —
// starting at the first inserted or deleted entry of the first dirty
// segment, found by binary search, not at the segment start — is staged in
// the scratch buffer, each spliced segment is re-merged from its old
// entries plus its add/remove delta, and clean segments are block-copied
// at their shifted offsets. The cost is O(delta·log + shifted suffix), and
// only genuinely moved or rewritten bytes are marked changed. Caller holds
// p.mu.
func (p *Pool) spliceSegmentsLocked(splice []int, oldContent, newContent, newPadded int, changed *metaDirty) bool {
	bs := p.meta.BlockSize()
	spliceSet := make(map[int]bool, len(splice))
	for _, id := range splice {
		spliceSet[id] = true
	}
	firstIdx := -1
	for i, id := range p.segIDs {
		if spliceSet[id] {
			firstIdx = i
			break
		}
	}
	if firstIdx < 0 {
		return false
	}
	oldPadded := len(p.image)

	// The entries of the first dirty segment strictly below its first
	// inserted/deleted vblock keep their bytes and positions; the splice
	// starts right after them.
	tm1 := p.thins[p.segIDs[firstIdx]]
	ins1 := sortedKeys(tm1.added)
	del1 := sortedKeys(tm1.removed)
	cutVb := ptUnmapped
	if len(ins1) > 0 {
		cutVb = ins1[0]
	}
	if len(del1) > 0 && del1[0] < cutVb {
		cutVb = del1[0]
	}
	entBase := tm1.segOff + thinHeaderLen
	oldN1 := (tm1.segLen - thinHeaderLen) / 16
	cutIdx := sort.Search(oldN1, func(k int) bool {
		return getUint64(p.image[entBase+16*k:]) >= cutVb
	})
	scratchBase := entBase + 16*cutIdx

	suffix := oldContent - scratchBase
	if suffix < 0 || scratchBase+suffix > oldPadded {
		return false
	}
	if cap(p.scratch) < suffix {
		p.scratch = make([]byte, suffix)
	}
	scratch := p.scratch[:suffix]
	copy(scratch, p.image[scratchBase:oldContent])

	if newPadded > len(p.image) {
		if newPadded <= cap(p.image) {
			p.image = p.image[:newPadded]
		} else {
			newCap := 2 * cap(p.image)
			if newCap < newPadded {
				newCap = newPadded
			}
			if slotCap := int(p.slotBlocks()) * bs; newCap > slotCap {
				newCap = slotCap
			}
			// The whole old arena must carry over, not just the prefix
			// below the scratch region: segments the splice loop leaves
			// in place (unshifted clean segments, kept prefixes and
			// headers of unshifted spliced segments) are read from the
			// arena itself, not from scratch.
			ni := make([]byte, newPadded, newCap)
			copy(ni, p.image)
			p.image = ni
		}
	}

	w := tm1.segOff
	for i := firstIdx; i < len(p.segIDs); i++ {
		tm := p.thins[p.segIDs[i]]
		oldOff, oldLen := tm.segOff, tm.segLen
		oldCount := (oldLen - thinHeaderLen) / 16
		if spliceSet[tm.id] {
			ins, del := ins1, del1
			kept := 0
			var srcEnts []byte
			if i == firstIdx {
				kept = cutIdx
				srcEnts = scratch[:16*(oldN1-cutIdx)]
			} else {
				ins = sortedKeys(tm.added)
				del = sortedKeys(tm.removed)
				srcEnts = scratch[oldOff-scratchBase+thinHeaderLen : oldOff-scratchBase+oldLen]
			}
			newCount := int(tm.pt.count)
			newLen := thinHeaderLen + 16*newCount
			if w+newLen > len(p.image) {
				return false
			}
			if w == oldOff {
				// Header and kept prefix stay in place; only the
				// mapCount field may change.
				if newCount != oldCount {
					putUint64(p.image[w+12:], uint64(newCount))
					markBytes(changed, w+12, w+20, bs)
				}
			} else {
				putThinHeader(p.image[w:], tm)
				markBytes(changed, w, w+thinHeaderLen, bs)
			}
			outPos := w + thinHeaderLen + 16*kept
			out := p.image[outPos : w+newLen]
			if !p.mergeEntriesLocked(tm, srcEnts, ins, del, out, outPos, w != oldOff, changed) {
				return false
			}
			resetSet(&tm.added)
			resetSet(&tm.removed)
			tm.segOff = w
			tm.segLen = newLen
			w += newLen
		} else {
			if w != oldOff {
				copy(p.image[w:w+oldLen], scratch[oldOff-scratchBase:oldOff-scratchBase+oldLen])
				markBytes(changed, w, w+oldLen, bs)
			}
			tm.segOff = w
			w += oldLen
		}
	}
	if w != newContent {
		return false
	}
	if newContent != oldContent {
		if newPadded > newContent {
			clear(p.image[newContent:newPadded])
		}
		lo := newContent
		if oldContent < lo {
			lo = oldContent
		}
		hi := oldPadded
		if newPadded > hi {
			hi = newPadded
		}
		markBytes(changed, lo, hi, bs)
	}
	p.image = p.image[:newPadded]
	return true
}

// mergeEntriesLocked merges the sorted old entries in srcEnts with the
// sorted insert/delete vblock lists into out (exactly the new entry
// region), binary-searching each event's position so the walk is driven by
// the delta, not the segment size: unchanged runs between events are
// single bulk copies. outPos is out's absolute arena offset, used to mark
// changed bytes — when the region is unshifted, only bytes from the first
// to the last affected position are marked. Caller holds p.mu.
func (p *Pool) mergeEntriesLocked(tm *thinMeta, srcEnts []byte, ins, del []uint64, out []byte, outPos int, shifted bool, changed *metaDirty) bool {
	bs := p.meta.BlockSize()
	oldN := len(srcEnts) / 16
	si, wo := 0, 0
	ii, di := 0, 0
	net := 0
	first, last := -1, -1
	copyRun := func(toIdx int) bool {
		if toIdx > si {
			n := 16 * (toIdx - si)
			if wo+n > len(out) {
				return false
			}
			copy(out[wo:], srcEnts[16*si:16*toIdx])
			if net != 0 {
				if first < 0 {
					first = wo
				}
				last = wo + n
			}
			wo += n
			si = toIdx
		}
		return true
	}
	for ii < len(ins) || di < len(del) {
		var vb uint64
		isDel := false
		if di < len(del) && (ii >= len(ins) || del[di] <= ins[ii]) {
			vb, isDel = del[di], true
		} else {
			vb = ins[ii]
		}
		idx := si + sort.Search(oldN-si, func(k int) bool {
			return getUint64(srcEnts[16*(si+k):]) >= vb
		})
		if !copyRun(idx) {
			return false
		}
		if isDel {
			if idx >= oldN || getUint64(srcEnts[16*idx:]) != vb {
				return false // removed entry absent from the old segment
			}
			si = idx + 1
			if first < 0 {
				first = wo
			}
			if wo > last {
				last = wo
			}
			net--
			di++
		} else {
			if idx < oldN && getUint64(srcEnts[16*idx:]) == vb {
				return false // insert collides with a live old entry
			}
			pb, ok := tm.pt.get(vb)
			if !ok || wo+16 > len(out) {
				return false
			}
			if first < 0 {
				first = wo
			}
			putUint64(out[wo:], vb)
			putUint64(out[wo+8:], pb)
			wo += 16
			last = wo
			net++
			ii++
		}
	}
	if !copyRun(oldN) {
		return false
	}
	if wo != len(out) {
		return false
	}
	if shifted {
		markBytes(changed, outPos, outPos+len(out), bs)
	} else if first >= 0 && last > first {
		markBytes(changed, outPos+first, outPos+last, bs)
	}
	return true
}

// sortedKeys returns the keys of set in ascending order.
func sortedKeys(set map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(set))
	for vb := range set {
		out = append(out, vb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writeSlot writes the marked meta blocks of the arena into the slot, in
// maximal runs, and seals it with super, the slot's pre-marshaled
// superblock. The sync between the image writes and the superblock write
// is the ordering barrier the commit protocol rests on: the flip must
// never reach stable storage before the image it points at. Caller holds
// commitMu (which owns the arena and pending sets); the mapping lock is
// not needed — concurrent mutators never touch the arena.
func (p *Pool) writeSlot(slot int, nBlocks uint64, dirty *metaDirty, super []byte) error {
	bs := uint64(p.meta.BlockSize())
	base := p.slotBase(slot)
	wrote := false
	err := dirty.forEachRunBelow(nBlocks, func(start, end uint64) error {
		wrote = true
		return storage.WriteBlocks(p.meta, base+start, p.image[start*bs:end*bs])
	})
	if err != nil {
		return fmt.Errorf("thinp: writing metadata slot %d: %w", slot, err)
	}
	if wrote {
		if err := p.meta.Sync(); err != nil {
			return fmt.Errorf("thinp: syncing metadata image: %w", err)
		}
	}
	if err := p.meta.WriteBlock(uint64(slot), super); err != nil {
		return fmt.Errorf("thinp: writing metadata superblock %d: %w", slot, err)
	}
	if err := p.meta.Sync(); err != nil {
		return fmt.Errorf("thinp: syncing metadata superblock: %w", err)
	}
	return nil
}

// marshalSuper builds the superblock sealing the arena at transaction tx
// with nThins thin devices (snapshotted under the mapping lock by the
// caller). The image checksum folds the cached per-block sums instead of
// re-hashing the image. Caller holds commitMu, which owns the arena and
// the checksum cache; everything else read here is immutable.
func (p *Pool) marshalSuper(tx uint64, nThins int) []byte {
	if p.superBuf == nil {
		p.superBuf = make([]byte, p.meta.BlockSize())
	}
	buf := p.superBuf
	clear(buf)
	putUint64(buf, superMagic)
	putUint32(buf[8:], superVersion)
	putUint32(buf[12:], uint32(p.data.BlockSize()))
	putUint64(buf[16:], p.data.NumBlocks())
	putUint64(buf[superTxOff:], tx)
	putUint32(buf[superCountOff:], uint32(nThins))
	putUint64(buf[superImgLenOff:], uint64(len(p.image)))
	putUint64(buf[superImgSumOff:], p.crcFold.fold(p.blockSums))
	putUint64(buf[superSelfSumOff:], crc.Checksum(buf[:superSelfSumOff]))
	return buf
}

// slotBlocks returns the capacity of one image slot in blocks.
func (p *Pool) slotBlocks() uint64 {
	n := p.meta.NumBlocks()
	if n < superSlots {
		return 0
	}
	return (n - superSlots) / 2
}

// slotBase returns the first block of image slot 0 or 1.
func (p *Pool) slotBase(slot int) uint64 {
	return superSlots + uint64(slot)*p.slotBlocks()
}

// thinHeaderLen is the fixed per-thin segment header: id u32 | virtBlocks
// u64 | mapCount u64, followed by 16-byte (vblock, pblock) entries sorted
// by vblock.
const thinHeaderLen = 4 + 8 + 8

// putThinHeader writes a segment header for tm's current mapping count.
func putThinHeader(buf []byte, tm *thinMeta) {
	putUint32(buf, uint32(tm.id))
	putUint64(buf[4:], tm.virtBlocks)
	putUint64(buf[12:], tm.pt.count)
}

// marshalThinTo serializes tm's metadata segment into dst — the page table
// walks entries in vblock order, so no sort is needed — and returns the
// segment length.
func marshalThinTo(dst []byte, tm *thinMeta) int {
	putThinHeader(dst, tm)
	off := thinHeaderLen
	tm.pt.forEach(func(vb, pb uint64) bool {
		putUint64(dst[off:], vb)
		putUint64(dst[off+8:], pb)
		off += 16
		return true
	})
	return off
}

// superCandidate is one slot's superblock as read during load, after its
// self-checksum validated.
type superCandidate struct {
	slot      int
	txID      uint64
	thinCount int
	imageLen  uint64
	imageSum  uint64
}

// load reads pool metadata from the metadata device, performing A/B
// recovery: both superblocks are read, invalid ones discarded, and the
// newest slot whose image checksum validates is loaded. The selection is
// recorded in p.recovery.
func (p *Pool) load() error {
	bs := p.meta.BlockSize()
	if p.meta.NumBlocks() < superSlots+2 || bs < superLen {
		return fmt.Errorf("%w: device smaller than two metadata slots", ErrCorruptMeta)
	}
	var cands []superCandidate
	var reasons []string
	reject := func(slot int, format string, args ...any) {
		reasons = append(reasons, fmt.Sprintf("slot %d: ", slot)+fmt.Sprintf(format, args...))
	}
	buf := make([]byte, bs)
	for slot := 0; slot < superSlots; slot++ {
		if err := p.meta.ReadBlock(uint64(slot), buf); err != nil {
			return fmt.Errorf("thinp: reading superblock %d: %w", slot, err)
		}
		if allZero(buf) {
			// A never-used slot (freshly formatted pool), not crash damage.
			continue
		}
		// Magic and version are checked before the checksum so a device
		// written by a different format version reports a clean version
		// mismatch, not phantom crash damage.
		if getUint64(buf) != superMagic {
			reject(slot, "bad magic")
			continue
		}
		if v := getUint32(buf[8:]); v != superVersion {
			reject(slot, "unsupported version %d", v)
			continue
		}
		if crc.Checksum(buf[:superSelfSumOff]) != getUint64(buf[superSelfSumOff:]) {
			reject(slot, "superblock checksum mismatch")
			continue
		}
		if sbs := getUint32(buf[12:]); int(sbs) != p.data.BlockSize() {
			reject(slot, "block size %d != data device %d", sbs, p.data.BlockSize())
			continue
		}
		if db := getUint64(buf[16:]); db != p.data.NumBlocks() {
			reject(slot, "data blocks %d != device %d", db, p.data.NumBlocks())
			continue
		}
		imageLen := getUint64(buf[superImgLenOff:])
		if imageLen%uint64(bs) != 0 || imageLen/uint64(bs) > p.slotBlocks() {
			reject(slot, "image length %d exceeds slot", imageLen)
			continue
		}
		cands = append(cands, superCandidate{
			slot:      slot,
			txID:      getUint64(buf[superTxOff:]),
			thinCount: int(getUint32(buf[superCountOff:])),
			imageLen:  imageLen,
			imageSum:  getUint64(buf[superImgSumOff:]),
		})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].txID > cands[j].txID })

	// Validate every candidate, newest first. The first fully valid one is
	// loaded; the rest are still checksum-verified so the recovery record
	// can report the interrupted commit a slot with a stale superblock over
	// a half-rewritten image is evidence of.
	loaded := false
	for _, c := range cands {
		raw, err := storage.ReadFull(p.meta, p.slotBase(c.slot), c.imageLen/uint64(bs))
		if err != nil {
			return fmt.Errorf("thinp: reading metadata slot %d: %w", c.slot, err)
		}
		if crc.Checksum(raw) != c.imageSum {
			reject(c.slot, "image checksum mismatch at tx %d", c.txID)
			continue
		}
		if loaded {
			// An older, consistent slot: the normal A/B steady state. Its
			// image is already in hand — prime its pending set with just
			// the blocks that diverge from the loaded arena, so the first
			// post-mount commit landing in it writes only the genuine
			// inter-slot delta instead of rewriting the whole slot.
			p.primePendingFrom(c.slot, raw)
			continue
		}
		if err := p.parseImage(raw, c.thinCount); err != nil {
			reject(c.slot, "%v", err)
			continue
		}
		p.txID = c.txID
		p.active = c.slot
		// The loaded image primes the arena: the loaded slot matches it
		// byte for byte, the other slot's content is unknown and stays
		// fully pending (set in newPool).
		p.image = raw
		p.pending[c.slot].clearAll()
		all := newMetaDirty(uint64(len(raw) / bs))
		all.setAll()
		p.refreshSums(all)
		p.structDirty = false
		p.recovery = Recovery{Slot: c.slot, TxID: c.txID}
		loaded = true
	}
	if !loaded {
		return fmt.Errorf("%w: no valid metadata slot (%v)", ErrCorruptMeta, reasons)
	}
	// Any rejected slot — a torn superblock flip, or a commit whose image
	// never fully landed — means this open rolled the pool back to its
	// last durable transaction.
	if len(reasons) > 0 {
		p.recovery.RolledBack = true
		p.recovery.Reason = reasons[0]
	}
	return nil
}

// primePendingFrom replaces slot's conservative load-time pending set
// (setAll — content unknown) with the exact divergence between the slot's
// validated on-disk image and the loaded arena. Arena blocks the other
// image does not cover are marked — the slot's disk bytes there are stale
// relative to the arena — while blocks beyond the arena need no mark:
// writeSlot never touches them until the arena grows, and growth passes
// through the changed set, which marks every grown block for both slots.
func (p *Pool) primePendingFrom(slot int, other []byte) {
	bs := p.meta.BlockSize()
	pend := p.pending[slot]
	pend.clearAll()
	nb := len(p.image) / bs
	for b := 0; b < nb; b++ {
		lo, hi := b*bs, (b+1)*bs
		if hi > len(other) || !bytes.Equal(p.image[lo:hi], other[lo:hi]) {
			pend.mark(uint64(b))
		}
	}
}

// allZero reports whether b contains only zero bytes.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// parseImage decodes an image (bitmap + thin segments) into the pool's
// in-memory state, recording each segment's arena position so the
// in-place commit can patch it.
func (p *Pool) parseImage(raw []byte, thinCount int) error {
	bm, err := UnmarshalBitmap(p.data.NumBlocks(), raw)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptMeta, err)
	}
	off := bm.MarshaledLen()

	thins := make(map[int]*thinMeta, thinCount)
	segIDs := make([]int, 0, thinCount)
	for i := 0; i < thinCount; i++ {
		if off+thinHeaderLen > len(raw) {
			return fmt.Errorf("%w: truncated thin header", ErrCorruptMeta)
		}
		segStart := off
		id := int(getUint32(raw[off:]))
		off += 4
		virt := getUint64(raw[off:])
		off += 8
		count := getUint64(raw[off:])
		off += 8
		if count > uint64(len(raw)-off)/16 {
			return fmt.Errorf("%w: truncated mapping table for thin %d", ErrCorruptMeta, id)
		}
		if _, dup := thins[id]; dup {
			return fmt.Errorf("%w: duplicate thin %d", ErrCorruptMeta, id)
		}
		tm := newThinMeta(id, virt)
		havePrev := false
		var prev uint64
		for j := uint64(0); j < count; j++ {
			vb := getUint64(raw[off:])
			off += 8
			pb := getUint64(raw[off:])
			off += 8
			if vb >= virt || pb == ptUnmapped || (havePrev && vb <= prev) {
				return fmt.Errorf("%w: invalid mapping table for thin %d", ErrCorruptMeta, id)
			}
			tm.pt.set(vb, pb)
			havePrev, prev = true, vb
		}
		tm.segOff = segStart
		tm.segLen = off - segStart
		thins[id] = tm
		segIDs = append(segIDs, id)
	}
	p.bm = bm
	p.thins = thins
	p.segIDs = segIDs
	return nil
}

func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// MetaBlocksNeeded returns a metadata-device size (in blocks of blockSize)
// sufficient for a pool over dataBlocks data blocks, for use when carving a
// partition into metadata and data regions (Fig. 3 layout). The size covers
// two superblocks and two full image slots — the A/B commit stores every
// transaction twice.
func MetaBlocksNeeded(dataBlocks uint64, blockSize int) uint64 {
	need := int((dataBlocks+63)/64)*8 + 16*int(dataBlocks) + 64*64
	slot := uint64((need + blockSize - 1) / blockSize)
	return superSlots + 2*slot
}
