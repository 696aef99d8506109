package core

import (
	"bytes"
	"testing"

	"mobiceal/internal/storage"
)

// TestFsyncFlushCounts pins what one fsync costs at the base device, the
// REQ_FLUSH path through minifs, dm-crypt and the thin pool. An overwrite
// changes no metadata anywhere, so its fsync is the data block and the
// data flush alone: the pool commit elides and no superblock is written.
// An append provisions a block, so the pool commits once; minifs's own
// journal barriers and that one commit stay within 5 flushes.
func TestFsyncFlushCounts(t *testing.T) {
	base := storage.NewStatsDevice(storage.NewMemDevice(blockSize, 4096))
	sys, err := Setup(base, testConfig(7), "decoy-pass", []string{"hidden-pass"})
	if err != nil {
		t.Fatal(err)
	}
	vol, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := vol.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("db")
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x5a}, blockSize)
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	m := base.Metrics()
	fsync := func(off int64) (flushes, writes, txs, metaWrites uint64) {
		t.Helper()
		s0, w0, tx0, mw0 := m.Syncs.Load(), m.WriteBlocks.Load(), sys.pool.TransactionID(),
			sys.metaStats.Metrics().WriteBlocks.Load()
		if _, err := f.WriteAt(page, off); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return m.Syncs.Load() - s0, m.WriteBlocks.Load() - w0, sys.pool.TransactionID() - tx0,
			sys.metaStats.Metrics().WriteBlocks.Load() - mw0
	}

	if flushes, writes, txs, metaWrites := fsync(0); flushes != 1 || writes != 1 || txs != 0 || metaWrites != 0 {
		t.Errorf("overwrite + fsync: %d flushes, %d block writes, %d pool transactions, %d metadata writes; want 1, 1, 0, 0",
			flushes, writes, txs, metaWrites)
	}
	flushes, writes, txs, _ := fsync(blockSize)
	t.Logf("append + fsync: %d flushes, %d block writes", flushes, writes)
	if flushes > 5 || txs != 1 {
		t.Errorf("append + fsync: %d flushes, %d pool transactions; want at most 5 flushes and 1 transaction",
			flushes, txs)
	}
}
