package thinp

import (
	"bytes"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// TestOpenPrimesInactiveSlotPending pins the satellite fix for the one
// full-slot rewrite the first post-mount commit used to pay: OpenPool now
// primes the inactive slot's pending set from that slot's own validated
// image, so a freshly opened pool's first 1-block-delta commit writes only
// the genuine inter-slot divergence plus the delta — a handful of metadata
// blocks — instead of the whole slot.
func TestOpenPrimesInactiveSlotPending(t *testing.T) {
	p, data, meta := newTestPool(t, 4096, Options{})
	if err := p.CreateThin(1, 4096); err != nil {
		t.Fatal(err)
	}
	driveMutations(t, p, 99)
	// Two commits so both A/B slots hold validated images of adjacent
	// transactions — the steady state every reboot reopens into.
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	thin, err := p.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := thin.WriteBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	stats := storage.NewStatsDevice(meta)
	p2, err := OpenPool(data, stats, Options{
		Entropy:  prng.NewSeededEntropy(3),
		DummySrc: prng.NewSource(4),
	})
	if err != nil {
		t.Fatalf("OpenPool: %v", err)
	}
	base := stats.Metrics().WriteBlocks.Load()

	thin2, err := p2.Thin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := thin2.WriteBlock(11, buf); err != nil {
		t.Fatal(err)
	}
	if err := p2.Commit(); err != nil {
		t.Fatal(err)
	}
	wrote := stats.Metrics().WriteBlocks.Load() - base

	// The first post-mount commit carries: the inter-slot divergence (the
	// previous transaction's delta — a few blocks), this commit's own
	// 1-block delta, and the superblock. Without priming it rewrote the
	// whole slot (slotBlocks, hundreds of blocks at this geometry).
	slot := p2.slotBlocks()
	if wrote > 16 || wrote > slot/4 {
		t.Fatalf("first post-mount commit wrote %d meta blocks (slot is %d); priming failed", wrote, slot)
	}
	if slot < 64 {
		t.Fatalf("test geometry too small to distinguish priming: slot %d", slot)
	}

	// The written image must still be byte-equivalent to what a full
	// rewrite produces: reopen and compare the active images.
	p3, err := OpenPool(data, meta, Options{
		Entropy:  prng.NewSeededEntropy(5),
		DummySrc: prng.NewSource(6),
	})
	if err != nil {
		t.Fatalf("reopening after primed commit: %v", err)
	}
	if err := p3.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if p3.TransactionID() != p2.TransactionID() {
		t.Fatalf("reopen landed on tx %d, want %d", p3.TransactionID(), p2.TransactionID())
	}
	got, err := p3.MappedVBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p2.MappedVBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mapping count diverged: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mapping diverged at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if !bytes.Equal(p2.image, p3.image) {
		t.Fatal("primed-commit image differs from reloaded image")
	}
}
