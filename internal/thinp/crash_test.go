package thinp

import (
	"errors"
	"fmt"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// poolSnap captures the observable committed state of a pool: transaction
// id, allocation count and the exact per-thin mappings.
type poolSnap struct {
	txID  uint64
	alloc uint64
	thins map[int]map[uint64]uint64
}

func snapPool(p *Pool) poolSnap {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := poolSnap{txID: p.txID, alloc: p.bm.Allocated(), thins: make(map[int]map[uint64]uint64)}
	for id, tm := range p.thins {
		m := make(map[uint64]uint64, tm.pt.count)
		tm.pt.forEach(func(vb, pb uint64) bool {
			m[vb] = pb
			return true
		})
		s.thins[id] = m
	}
	return s
}

func (s poolSnap) equal(o poolSnap) bool {
	if s.alloc != o.alloc || len(s.thins) != len(o.thins) {
		return false
	}
	for id, m := range s.thins {
		om, ok := o.thins[id]
		if !ok || len(m) != len(om) {
			return false
		}
		for vb, pb := range m {
			if om[vb] != pb {
				return false
			}
		}
	}
	return true
}

// checkCrashPoint opens the pool from one crash image and asserts it lands
// on exactly one of the committed snapshots — never an intermediate state.
func checkCrashPoint(t *testing.T, label string, data storage.Device, img storage.Device, snaps map[uint64]poolSnap) {
	t.Helper()
	re, err := OpenPool(data, img, Options{Entropy: prng.NewSeededEntropy(99)})
	if err != nil {
		t.Fatalf("%s: OpenPool: %v", label, err)
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity: %v", label, err)
	}
	want, ok := snaps[re.TransactionID()]
	if !ok {
		t.Fatalf("%s: recovered tx %d is not a committed transaction", label, re.TransactionID())
	}
	if !snapPool(re).equal(want) {
		t.Fatalf("%s: recovered state differs from committed tx %d", label, re.TransactionID())
	}
}

// TestCrashEnumerationPoolCommit is the crash-enumeration harness of the
// A/B commit: a workload of thin writes, discards, a structural change and
// three commits runs over a metadata device that logs every persisted
// write; the pool is then re-opened from the stable state after every
// single write index — plus torn-block variants of every write — and must
// recover to exactly one of the committed transactions each time.
func TestCrashEnumerationPoolCommit(t *testing.T) {
	const dataBlocks = 512
	data := storage.NewMemDevice(blockSize, dataBlocks)
	metaCrash := storage.NewCrashDevice(storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize)))
	p, err := CreatePool(data, metaCrash, Options{Entropy: prng.NewSeededEntropy(51)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 256); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8*blockSize)
	if err := storage.WriteBlocks(thin, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	snaps := map[uint64]poolSnap{p.TransactionID(): snapPool(p)}
	if err := metaCrash.StartRecording(); err != nil {
		t.Fatal(err)
	}

	// Commit 2: provisioning writes, an overwrite and a discard — an
	// incremental delta.
	if err := storage.WriteBlocks(thin, 32, buf); err != nil {
		t.Fatal(err)
	}
	if err := thin.WriteBlock(0, buf[:blockSize]); err != nil {
		t.Fatal(err)
	}
	if err := thin.Discard(3); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	snaps[p.TransactionID()] = snapPool(p)

	// Commit 3: a structural change (new thin) plus more writes — the full
	// rebuild path.
	if err := p.CreateThin(2, 128); err != nil {
		t.Fatal(err)
	}
	thin2, err := p.Thin(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin2, 10, buf[:4*blockSize]); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	snaps[p.TransactionID()] = snapPool(p)

	total := metaCrash.PersistedWrites()
	if total < 4 {
		t.Fatalf("only %d persisted metadata writes recorded; harness is not exercising the stream", total)
	}
	for n := 0; n <= total; n++ {
		img, err := metaCrash.CrashImage(n)
		if err != nil {
			t.Fatal(err)
		}
		checkCrashPoint(t, fmt.Sprintf("cut@%d", n), data, img, snaps)
		if n == total {
			continue
		}
		for _, tear := range []int{1, blockSize / 2, blockSize - 1} {
			img, err := metaCrash.CrashImageTorn(n, tear)
			if err != nil {
				t.Fatal(err)
			}
			checkCrashPoint(t, fmt.Sprintf("torn@%d+%db", n, tear), data, img, snaps)
		}
	}
}

// TestOpenPoolRollsBackTornSuperblock corrupts the active slot's superblock
// the way a torn flip write would and verifies OpenPool falls back to the
// previous transaction, reporting the rollback.
func TestOpenPoolRollsBackTornSuperblock(t *testing.T) {
	const dataBlocks = 256
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(61)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 64); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin, 0, make([]byte, 4*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	prevSnap := snapPool(p)
	prevTx := p.TransactionID()
	if err := storage.WriteBlocks(thin, 8, make([]byte, 4*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	p.mu.RLock()
	active := p.active
	p.mu.RUnlock()

	// Tear the freshly flipped superblock: flip a byte in its checksum.
	super := make([]byte, blockSize)
	if err := meta.ReadBlock(uint64(active), super); err != nil {
		t.Fatal(err)
	}
	super[superSelfSumOff] ^= 0xff
	if err := meta.WriteBlock(uint64(active), super); err != nil {
		t.Fatal(err)
	}

	re, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(62)})
	if err != nil {
		t.Fatalf("OpenPool with torn superblock: %v", err)
	}
	if re.TransactionID() != prevTx {
		t.Fatalf("recovered tx %d, want rollback to %d", re.TransactionID(), prevTx)
	}
	if !snapPool(re).equal(prevSnap) {
		t.Fatal("recovered state differs from the previous commit")
	}
	rec := re.Recovery()
	if !rec.RolledBack || rec.TxID != prevTx || rec.Slot == active {
		t.Fatalf("recovery = %+v, want rollback onto slot %d tx %d", rec, 1-active, prevTx)
	}
}

// TestOpenPoolRejectsDoubleCorruption verifies that with both slots
// invalidated nothing plausible is loaded — ErrCorruptMeta, not garbage.
func TestOpenPoolRejectsDoubleCorruption(t *testing.T) {
	const dataBlocks = 256
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	if _, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(63)}); err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, blockSize)
	for i := range bad {
		bad[i] = 0x5a
	}
	for slot := uint64(0); slot < superSlots; slot++ {
		if err := meta.WriteBlock(slot, bad); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenPool(data, meta, Options{Entropy: prng.NewSeededEntropy(64)}); !errors.Is(err, ErrCorruptMeta) {
		t.Fatalf("OpenPool err = %v, want ErrCorruptMeta", err)
	}
}

// TestFreedBlockQuarantineUntilCommit pins the reuse rule the A/B rollback
// depends on: a block freed from committed state must not be reallocated
// until the commit recording the free is durable — otherwise a crash
// rollback would resurrect the old mapping pointing at another volume's
// fresh data. Blocks allocated and freed within the same transaction are
// exempt.
func TestFreedBlockQuarantineUntilCommit(t *testing.T) {
	const dataBlocks = 16
	data := storage.NewMemDevice(blockSize, dataBlocks)
	meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
	p, err := CreatePool(data, meta, Options{Entropy: prng.NewSeededEntropy(81)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(1, 32); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateThin(2, 32); err != nil {
		t.Fatal(err)
	}
	thin1, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	thin2, err := p.Thin(2)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the pool completely and commit.
	if err := thin1.WriteBlock(0, make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteBlocks(thin2, 0, make([]byte, (dataBlocks-1)*blockSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	// Free thin1's committed block: the space must NOT be reusable yet.
	if err := thin1.Discard(0); err != nil {
		t.Fatal(err)
	}
	if err := thin2.WriteBlock(20, make([]byte, blockSize)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write reusing uncommitted free err = %v, want ErrNoSpace", err)
	}
	// After the commit records the free, the block is reusable.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := thin2.WriteBlock(20, make([]byte, blockSize)); err != nil {
		t.Fatalf("write after committed free: %v", err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Same-transaction alloc+free is exempt: with the pool full again,
	// discarding the block just written (uncommitted) frees it for
	// immediate reuse.
	if err := thin2.Discard(20); err != nil {
		t.Fatal(err)
	}
	if err := thin2.WriteBlock(21, make([]byte, blockSize)); err != nil {
		t.Fatalf("reusing same-transaction free: %v", err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
