package defy

import (
	"bytes"
	"errors"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

const blockSize = 4096

func newDevice(t testing.TB, seed, logical uint64) *Device {
	t.Helper()
	d, err := New(storage.NewMemDevice(blockSize, logical*8), logical, Config{
		Entropy: prng.NewSeededEntropy(seed),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestReadYourWrites(t *testing.T) {
	d := newDevice(t, 1, 64)
	src := prng.NewSource(2)
	content := map[uint64][]byte{}
	for i := 0; i < 40; i++ {
		idx := src.Uint64n(64)
		buf := make([]byte, blockSize)
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlock(idx, buf); err != nil {
			t.Fatal(err)
		}
		content[idx] = buf
	}
	got := make([]byte, blockSize)
	for idx, want := range content {
		if err := d.ReadBlock(idx, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d mismatch", idx)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := newDevice(t, 3, 16)
	buf := bytes.Repeat([]byte{0xAB}, blockSize)
	if err := d.ReadBlock(7, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
}

func TestLogStructuredAppends(t *testing.T) {
	d := newDevice(t, 4, 64)
	buf := make([]byte, blockSize)
	head0 := d.head
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	head1 := d.head
	// One logical write appends data + KST path: more than one block.
	if head1-head0 < 2 {
		t.Fatalf("append delta %d, want >= 2 (data + KST path)", head1-head0)
	}
	// Overwrite appends again (no in-place update).
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if d.head == head1 {
		t.Fatal("overwrite did not append")
	}
}

func TestEpochChangesCiphertext(t *testing.T) {
	// Writing identical plaintext twice must produce different ciphertext
	// (per-epoch keys), or deleted versions would be linkable.
	mem := storage.NewMemDevice(blockSize, 512)
	d, err := New(mem, 32, Config{Entropy: prng.NewSeededEntropy(5)})
	if err != nil {
		t.Fatal(err)
	}
	plain := bytes.Repeat([]byte{0x77}, blockSize)
	if err := d.WriteBlock(9, plain); err != nil {
		t.Fatal(err)
	}
	slot1 := d.mapping[9]
	if err := d.WriteBlock(9, plain); err != nil {
		t.Fatal(err)
	}
	slot2 := d.mapping[9]
	ct1 := make([]byte, blockSize)
	ct2 := make([]byte, blockSize)
	if err := mem.ReadBlock(slot1, ct1); err != nil {
		t.Fatal(err)
	}
	if err := mem.ReadBlock(slot2, ct2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("same plaintext encrypted identically across epochs")
	}
}

func TestLogFull(t *testing.T) {
	d, err := New(storage.NewMemDevice(blockSize, 40), 32, Config{
		Entropy: prng.NewSeededEntropy(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	var sawFull bool
	for i := uint64(0); i < 32; i++ {
		if err := d.WriteBlock(i, buf); err != nil {
			if errors.Is(err, ErrLogFull) {
				sawFull = true
				break
			}
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("log never filled")
	}
}

func TestBounds(t *testing.T) {
	d := newDevice(t, 7, 16)
	buf := make([]byte, blockSize)
	if err := d.WriteBlock(16, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if err := d.ReadBlock(16, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if err := d.WriteBlock(0, buf[:7]); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectsTooSmallPhysical(t *testing.T) {
	if _, err := New(storage.NewMemDevice(blockSize, 32), 32, Config{
		Entropy: prng.NewSeededEntropy(8),
	}); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("err = %v, want ErrTooSmall", err)
	}
}

func TestCryptoDominatesOnNandsim(t *testing.T) {
	// On the nandsim profile the store must be crypto-bound: crypto bytes
	// charged well exceed logical bytes written. Crypto is the meter's
	// only cost here, at one byte per nanosecond, so the clock reads the
	// bytes charged.
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Profile{CryptBps: 1e9})
	d, err := NewOverProfile(blockSize, 64, meter, 9)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	const n = 32
	for i := uint64(0); i < n; i++ {
		if err := d.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	logical := uint64(n * blockSize)
	if charged := uint64(clock.Now()); charged < 2*logical {
		t.Fatalf("crypto bytes %d < 2x logical %d", charged, logical)
	}
}
