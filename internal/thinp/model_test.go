package thinp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// refPool is the specification the real pool is held to: per-thin maps from
// virtual to physical block, the payload last written to each physical
// block, a free set, and a committed copy of the mappings. It allocates in
// its own physical numbering (lowest free block — placement is not part of
// the logical contract), so everything compared against the real pool is
// placement-blind: contents, counts, and which requests run out of space.
type refPool struct {
	size             uint64
	thins, committed map[int]*refThin
	content          map[uint64][]byte // physical block -> payload
	free             map[uint64]bool   // allocatable now
	txAlloc          map[uint64]bool   // allocated since the last commit
	// txFree holds blocks freed while the committed copy still maps them:
	// not allocatable until a commit makes the free durable.
	txFree map[uint64]bool

	// The dummy policy: every every-th provision fires count noise blocks
	// into thin target at vblocks only the real pool's PRNG knows. Their
	// physical blocks wait in unplaced until the driver reports the vblocks.
	every, count, target, seen int
	unplaced                   []uint64
}

type refThin struct {
	virt uint64
	m    map[uint64]uint64
}

func cloneThins(src map[int]*refThin) map[int]*refThin {
	out := make(map[int]*refThin, len(src))
	for id, t := range src {
		c := &refThin{virt: t.virt, m: make(map[uint64]uint64, len(t.m))}
		for vb, pb := range t.m {
			c.m[vb] = pb
		}
		out[id] = c
	}
	return out
}

func newRefPool(size uint64, every, count, target int) *refPool {
	r := &refPool{size: size, thins: map[int]*refThin{}, committed: map[int]*refThin{},
		content: map[uint64][]byte{}, every: every, count: count, target: target}
	r.crash() // everything free, nothing pending
	return r
}

func (r *refPool) take() uint64 {
	for pb := uint64(0); pb < r.size; pb++ {
		if r.free[pb] {
			delete(r.free, pb)
			r.txAlloc[pb] = true
			return pb
		}
	}
	panic("refPool: take from an empty free set")
}

func (r *refPool) release(pb uint64) {
	if r.txAlloc[pb] {
		delete(r.txAlloc, pb)
		r.free[pb] = true
	} else {
		r.txFree[pb] = true
	}
}

// write maps every hole of [start, start+len(blocks)) in order, consulting
// the dummy policy after each provision, then lands the payloads. Running
// out of space mid-request unmaps what the request provisioned (dummy blocks
// already fired stay) and changes no payload.
func (r *refPool) write(id int, start uint64, blocks [][]byte) error {
	t := r.thins[id]
	var fresh []uint64
	for i := range blocks {
		vb := start + uint64(i)
		if _, ok := t.m[vb]; ok {
			continue
		}
		if len(r.free) == 0 {
			for _, f := range fresh {
				r.release(t.m[f])
				delete(t.m, f)
			}
			return ErrNoSpace
		}
		t.m[vb] = r.take()
		fresh = append(fresh, vb)
		if r.seen++; r.seen%r.every == 0 {
			tgt := r.thins[r.target]
			room := int(tgt.virt) - len(tgt.m) - len(r.unplaced)
			for n := 0; n < r.count && n < room && len(r.free) > 0; n++ {
				r.unplaced = append(r.unplaced, r.take())
			}
		}
	}
	for i, b := range blocks {
		r.content[t.m[start+uint64(i)]] = b
	}
	return nil
}

func (r *refPool) discard(id int, start, count uint64) {
	t := r.thins[id]
	for vb := start; vb < start+count; vb++ {
		if pb, ok := t.m[vb]; ok {
			r.release(pb)
			delete(t.m, vb)
		}
	}
}

func (r *refPool) deleteThin(id int) {
	r.discard(id, 0, r.thins[id].virt)
	delete(r.thins, id)
}

func (r *refPool) commit() {
	r.committed = cloneThins(r.thins)
	for pb := range r.txFree {
		r.free[pb] = true
	}
	r.txAlloc, r.txFree = map[uint64]bool{}, map[uint64]bool{}
}

// crash drops everything since the last commit. Payloads are not rolled
// back: the data device is not transactional, and the quarantine is what
// guarantees no committed block was handed to a new owner meanwhile.
func (r *refPool) crash() {
	r.thins = cloneThins(r.committed)
	r.free, r.txAlloc, r.txFree = map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}
	for pb := uint64(0); pb < r.size; pb++ {
		r.free[pb] = true
	}
	for _, t := range r.thins {
		for _, pb := range t.m {
			delete(r.free, pb)
		}
	}
}

// TestReferenceModelLockstep drives the real pool — RandomAllocator, so
// auto-sharded, with a dummy policy — and refPool with one seeded op stream
// and compares them after every op: thin ids, per-thin mapped counts, every
// logical block, allocated/free/pending counts, and which writes fail for
// lack of space. Every commit additionally passes CheckIntegrity and
// CheckConsistency and must leave on disk exactly the image a CommitFull
// rebuild of the same state writes; a reopen without a commit must land on
// the model's committed copy.
func TestReferenceModelLockstep(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runLockstep(t, seed, 2000) })
	}
}

func runLockstep(t *testing.T, seed int64, ops int) {
	const (
		dataBlocks = 96
		virt       = 40
		dummyThin  = 9
		dummyVirt  = 64
	)
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	policy := &everyNthPolicy{every: 4, target: dummyThin, count: 2}
	opts := func(n int64) Options {
		return Options{
			Allocator: NewRandomAllocator(prng.NewSource(uint64(seed*1000 + n))),
			Entropy:   prng.NewSeededEntropy(uint64(seed)),
			DummySrc:  prng.NewSource(uint64(seed*1000 + n + 500)),
			Policy:    policy,
		}
	}
	p, err := CreatePool(data, meta, opts(0))
	if err != nil {
		t.Fatal(err)
	}
	r := newRefPool(dataBlocks, policy.every, policy.count, dummyThin)
	if err := p.CreateThin(dummyThin, dummyVirt); err != nil {
		t.Fatal(err)
	}
	r.thins[dummyThin] = &refThin{virt: dummyVirt, m: map[uint64]uint64{}}

	rng := rand.New(rand.NewSource(seed))
	var step, noSpace, dummies, crashes int
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	reopen := func() {
		if p, err = OpenPool(data, meta, opts(int64(step)+1)); err != nil {
			fail("OpenPool: %v", err)
		}
	}
	// write runs one write on both sides and hands the model the vblocks the
	// real pool's dummy bursts chose.
	write := func(id int, start uint64, n int) {
		blocks := make([][]byte, n)
		flat := make([]byte, 0, n*blockSize)
		for i := range blocks {
			blocks[i] = make([]byte, blockSize)
			rng.Read(blocks[i])
			flat = append(flat, blocks[i]...)
		}
		thin, err := p.Thin(id)
		if err != nil {
			fail("Thin(%d): %v", id, err)
		}
		got := storage.WriteBlocks(thin, start, flat)
		want := r.write(id, start, blocks)
		if want == nil && got != nil || want != nil && !errors.Is(got, want) {
			fail("write thin %d [%d,+%d): err = %v, model says %v", id, start, n, got, want)
		}
		if want != nil {
			noSpace++
		}
		mapped, err := p.MappedVBlocks(dummyThin)
		if err != nil {
			fail("MappedVBlocks: %v", err)
		}
		tgt := r.thins[dummyThin]
		dthin, _ := p.Thin(dummyThin)
		for _, vb := range mapped {
			if _, ok := tgt.m[vb]; ok {
				continue
			}
			if len(r.unplaced) == 0 {
				fail("dummy thin gained vblock %d the policy did not pay for", vb)
			}
			noise := make([]byte, blockSize)
			if err := dthin.ReadBlock(vb, noise); err != nil {
				fail("reading dummy block: %v", err)
			}
			tgt.m[vb], r.unplaced = r.unplaced[0], r.unplaced[1:]
			r.content[tgt.m[vb]] = noise
			dummies++
		}
		if len(r.unplaced) != 0 {
			fail("%d dummy blocks the policy fired never appeared", len(r.unplaced))
		}
	}

	commit := func() {
		if err := p.Commit(); err != nil {
			fail("Commit: %v", err)
		}
		r.commit()
		if err := p.CheckIntegrity(); err != nil {
			fail("%v", err)
		}
		if err := p.CheckConsistency(); err != nil {
			fail("%v", err)
		}
		if err := imageMatchesRebuild(p, data, meta); err != nil {
			fail("%v", err)
		}
	}

	for step = 0; step < ops; step++ {
		id := 1 + rng.Intn(3)
		_, exists := r.thins[id]
		switch k := rng.Intn(100); {
		case k < 50 && exists: // write, flat or multi-block
			n := 1
			if k >= 35 {
				n = 2 + rng.Intn(5)
			}
			write(id, uint64(rng.Intn(virt-n+1)), n)
		case k < 65: // discard, dummy thin included (the GC analogue)
			if k >= 60 || !exists {
				id = dummyThin
			}
			start := uint64(rng.Intn(int(r.thins[id].virt) - 8))
			count := uint64(1 + rng.Intn(8))
			thin, _ := p.Thin(id)
			if err := storage.Discard(thin, start, count); err != nil {
				fail("discard: %v", err)
			}
			r.discard(id, start, count)
		case k < 75 && exists: // discard and rewrite inside one round
			// Between two commits this thin only gives blocks up and takes
			// them back at the same vblocks: its adds equal its removes, the
			// shape the fold patches entry by entry in place.
			if err := p.Commit(); err != nil {
				fail("Commit: %v", err)
			}
			r.commit()
			thin, _ := p.Thin(id)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				vb := uint64(rng.Intn(virt))
				if err := thin.Discard(vb); err != nil {
					fail("discard: %v", err)
				}
				_, mapped := r.thins[id].m[vb]
				r.discard(id, vb, 1)
				if mapped {
					write(id, vb, 1)
				}
			}
			commit()
		case k < 80: // create
			err := p.CreateThin(id, virt)
			if exists != errors.Is(err, ErrThinExists) || !exists && err != nil {
				fail("CreateThin(%d) with exists=%v: %v", id, exists, err)
			}
			if !exists {
				r.thins[id] = &refThin{virt: virt, m: map[uint64]uint64{}}
			}
		case k < 83: // delete
			err := p.DeleteThin(id)
			if exists == errors.Is(err, ErrNoSuchThin) || exists && err != nil {
				fail("DeleteThin(%d) with exists=%v: %v", id, exists, err)
			}
			if exists {
				r.deleteThin(id)
			}
		case k < 94, k >= 97: // commit; the top of the range also reopens
			commit()
			if k >= 97 {
				reopen()
			}
		case k < 97: // power cut: reopen without commit
			reopen()
			r.crash()
			crashes++
		}
		if err := compareToModel(p, r); err != nil {
			fail("%v", err)
		}
	}
	if noSpace == 0 || dummies == 0 || crashes == 0 {
		t.Fatalf("seed %d: stream too tame: %d no-space writes, %d dummy blocks, %d crashes",
			seed, noSpace, dummies, crashes)
	}
}

// compareToModel checks everything the logical contract covers.
func compareToModel(p *Pool, r *refPool) error {
	ids := make([]int, 0, len(r.thins))
	for id := range r.thins {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if got := p.ThinIDs(); fmt.Sprint(got) != fmt.Sprint(ids) {
		return fmt.Errorf("thin ids %v, model %v", got, ids)
	}
	zero := make([]byte, blockSize)
	total := 0
	for _, id := range ids {
		rt := r.thins[id]
		total += len(rt.m)
		if n, err := p.MappedBlocks(id); err != nil || n != uint64(len(rt.m)) {
			return fmt.Errorf("thin %d maps %d blocks (err %v), model %d", id, n, err, len(rt.m))
		}
		thin, err := p.Thin(id)
		if err != nil {
			return err
		}
		buf := make([]byte, int(rt.virt)*blockSize)
		if err := storage.ReadBlocks(thin, 0, buf); err != nil {
			return fmt.Errorf("reading thin %d: %w", id, err)
		}
		for vb := uint64(0); vb < rt.virt; vb++ {
			want := zero
			if pb, ok := rt.m[vb]; ok {
				want = r.content[pb]
			}
			if !bytes.Equal(buf[vb*blockSize:(vb+1)*blockSize], want) {
				return fmt.Errorf("thin %d vblock %d: contents differ from the model", id, vb)
			}
		}
	}
	if a, f := p.AllocatedBlocks(), p.FreeBlocks(); a != uint64(total) || f != r.size-uint64(total) {
		return fmt.Errorf("allocated/free %d/%d, model %d/%d", a, f, total, r.size-uint64(total))
	}
	if n := p.PendingAllocations(); n != len(r.txAlloc) {
		return fmt.Errorf("%d pending allocations, model %d", n, len(r.txAlloc))
	}
	return nil
}

// imageMatchesRebuild compares the image the last commit left in the active
// slot — through whichever fold shape it took — with the arena and with what
// a from-scratch CommitFull of the same committed state writes, on a second
// pool opened over a copy of the metadata device.
func imageMatchesRebuild(p *Pool, data, meta *storage.MemDevice) error {
	slotImage := func(q *Pool, dev storage.Device) ([]byte, error) {
		return storage.ReadFull(dev, q.slotBase(q.active), uint64(len(q.image)/blockSize))
	}
	onDisk, err := slotImage(p, meta)
	if err != nil {
		return err
	}
	if !bytes.Equal(onDisk, p.image) {
		return errors.New("active slot on disk differs from the arena")
	}
	raw, err := storage.ReadFull(meta, 0, meta.NumBlocks())
	if err != nil {
		return err
	}
	scratch := storage.NewMemDevice(blockSize, meta.NumBlocks())
	if err := storage.WriteBlocks(scratch, 0, raw); err != nil {
		return err
	}
	q, err := OpenPool(data, scratch, Options{})
	if err != nil {
		return fmt.Errorf("opening the copy: %w", err)
	}
	if err := q.CommitFull(); err != nil {
		return err
	}
	rebuilt, err := slotImage(q, scratch)
	if err != nil {
		return err
	}
	if !bytes.Equal(onDisk, rebuilt) {
		return errors.New("committed image differs from a CommitFull rebuild of the same state")
	}
	return nil
}
