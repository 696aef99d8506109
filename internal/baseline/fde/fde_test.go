package fde

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

const blockSize = 4096

func testConfig(seed uint64) Config {
	return Config{KDFIter: 16, Entropy: prng.NewSeededEntropy(seed)}
}

func TestSetupBootRoundtrip(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 2048)
	sys, err := Setup(dev, testConfig(1), "pass123")
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	fs, err := sys.FormatUserdata("pass123")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("doc")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("android userdata")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Reboot: reopen from the footer and boot.
	sys2, err := Open(dev, testConfig(2))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fs2, err := sys2.Boot("pass123")
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	f2, err := fs2.Open("doc")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f2.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("FDE roundtrip mismatch")
	}
}

func TestBootRejectsWrongPassword(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 2048)
	sys, err := Setup(dev, testConfig(3), "correct")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.FormatUserdata("correct"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Boot("wrong"); err == nil {
		t.Fatal("Boot with wrong password succeeded")
	}
}

func TestCiphertextOnDisk(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 2048)
	sys, err := Setup(dev, testConfig(4), "pw")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sys.FormatUserdata("pw")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("secret")
	if err != nil {
		t.Fatal(err)
	}
	marker := bytes.Repeat([]byte("MARKER42"), 512)
	if _, err := f.WriteAt(marker, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Scan the raw device for the plaintext marker.
	buf := make([]byte, blockSize)
	for i := uint64(0); i < dev.NumBlocks(); i++ {
		if err := dev.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(buf, []byte("MARKER42")) {
			t.Fatalf("plaintext marker found in raw block %d", i)
		}
	}
}

func TestSetupRejectsTinyDevice(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 2)
	if _, err := Setup(dev, testConfig(5), "p"); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("err = %v, want ErrTooSmall", err)
	}
}

func TestDataBlocksExcludesFooter(t *testing.T) {
	dev := storage.NewMemDevice(blockSize, 1024)
	sys, err := Setup(dev, testConfig(6), "p")
	if err != nil {
		t.Fatal(err)
	}
	if sys.data != 1024-4 { // 16 KB footer = 4 blocks at 4 KB
		t.Fatalf("data blocks = %d", sys.data)
	}
}
