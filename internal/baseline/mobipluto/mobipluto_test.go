package mobipluto

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mobiceal/internal/minifs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

const blockSize = 4096

func testConfig(seed uint64) Config {
	return Config{KDFIter: 16, Entropy: prng.NewSeededEntropy(seed)}
}

func newSystem(t testing.TB, seed uint64) (*System, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice(blockSize, 4096)
	sys, err := Setup(dev, testConfig(seed), "decoy")
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return sys, dev
}

func TestPublicVolumeRoundtrip(t *testing.T) {
	sys, _ := newSystem(t, 1)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minifs.Format(pub, 256)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("pub")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("public data")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	gotFS, hidden, err := sys.Boot("decoy")
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if hidden {
		t.Fatal("decoy password booted hidden mode")
	}
	f2, err := gotFS.Open("pub")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("public roundtrip mismatch")
	}
}

func TestHiddenVolumeRoundtrip(t *testing.T) {
	sys, _ := newSystem(t, 2)
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minifs.Format(hid, 64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("secret")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hidden data")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	gotFS, hidden, err := sys.Boot("hidden-pass")
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if !hidden {
		t.Fatal("hidden password booted public mode")
	}
	f2, err := gotFS.Open("secret")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("hidden roundtrip mismatch")
	}
}

func TestBootRejectsUnknownPassword(t *testing.T) {
	sys, _ := newSystem(t, 3)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := minifs.Format(pub, 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Boot("nothing"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v, want ErrBadPassword", err)
	}
}

func TestInitialFillLooksRandom(t *testing.T) {
	_, dev := newSystem(t, 4)
	// Sample data-area blocks: none may be all zeros.
	buf := make([]byte, blockSize)
	zeroBlocks := 0
	for i := uint64(100); i < 200; i++ {
		if err := dev.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
		allZero := true
		for _, b := range buf {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			zeroBlocks++
		}
	}
	if zeroBlocks > 0 {
		t.Fatalf("%d data blocks are zero after random fill", zeroBlocks)
	}
}

func TestSequentialAllocation(t *testing.T) {
	// Stock dm-thin: scattered first writes still land on consecutive
	// physical blocks, in allocation order.
	sys, _ := newSystem(t, 5)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	for _, vb := range []uint64{40, 3, 17, 9, 28} {
		if err := pub.WriteBlock(vb, make([]byte, blockSize)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sys.Pool().PhysicalBlocks(PublicVolumeID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("public volume owns %d physical blocks, want 5", len(got))
	}
	for i := range got {
		if got[i] != got[0]+uint64(i) {
			t.Fatalf("public volume physical blocks = %v, want consecutive", got)
		}
	}
}

func TestHiddenRegionDeterministicPerPassword(t *testing.T) {
	sys, _ := newSystem(t, 6)
	o1, l1 := sys.hiddenRegion("pw-a")
	o2, l2 := sys.hiddenRegion("pw-a")
	if o1 != o2 || l1 != l2 {
		t.Fatal("hidden region not deterministic")
	}
	o3, _ := sys.hiddenRegion("pw-b")
	if o1 == o3 {
		t.Fatal("different passwords derived the same offset")
	}
	if o1 < sys.DataBlocks()/2 {
		t.Fatalf("hidden offset %d in first half of disk", o1)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	sys, dev := newSystem(t, 7)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minifs.Format(pub, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("keep"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Pool().Commit(); err != nil {
		t.Fatal(err)
	}
	sys2, err := Open(dev, testConfig(8))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fs2, hidden, err := sys2.Boot("decoy")
	if err != nil {
		t.Fatal(err)
	}
	if hidden {
		t.Fatal("boot mode wrong after reopen")
	}
	if names := fs2.List(); len(names) != 1 || names[0] != "keep" {
		t.Fatalf("names = %v", names)
	}
}

// The vulnerability MobiCeal fixes: public writes land sequentially from
// the start, so hidden writes to the second half change blocks the pool
// bitmap says are free — visible to a multi-snapshot adversary. This test
// pins that behaviour so the adversary experiment exercises the real thing.
func TestHiddenWritesAreOutsidePoolAllocation(t *testing.T) {
	sys, _ := newSystem(t, 9)
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minifs.Format(hid, 64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 10*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// The pool saw none of those writes.
	if got := sys.Pool().AllocatedBlocks(); got != 0 {
		t.Fatalf("pool allocated %d blocks from hidden traffic", got)
	}
}
