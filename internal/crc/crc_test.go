package crc

import (
	"hash/crc64"
	"math/rand"
	"testing"
)

// stdlib is the reference every result must equal bit for bit: the v2
// superblock and minifs journal seals were written by it.
func stdlib(crc uint64, p []byte) uint64 {
	return crc64.Update(crc, crc64.MakeTable(crc64.ECMA), p)
}

// TestEveryShortLength covers every length the kernel's entry, both fold
// distances and the table tail meet, at every start alignment MOVOU sees.
func TestEveryShortLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1024+3)
	rng.Read(buf)
	for _, reg := range []uint64{0, rng.Uint64()} {
		for off := 0; off < 4; off++ {
			for n := 0; n <= 1024; n++ {
				p := buf[off : off+n]
				if got, want := Update(reg, p), stdlib(reg, p); got != want {
					t.Fatalf("reg %#x off %d len %d: %#x, want %#x", reg, off, n, got, want)
				}
			}
		}
	}
}

func TestRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		p := make([]byte, rng.Intn(64<<10+1))
		rng.Read(p)
		reg := rng.Uint64()
		if got, want := Update(reg, p), stdlib(reg, p); got != want {
			t.Fatalf("len %d: %#x, want %#x", len(p), got, want)
		}
	}
}

// TestChainedUpdates splits one message at random points: chained Update
// calls are how minifs seals its journal.
func TestChainedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		p := make([]byte, rng.Intn(16<<10))
		rng.Read(p)
		want := stdlib(0, p)
		c, rest := uint64(0), p
		for len(rest) > 0 {
			k := rng.Intn(len(rest) + 1)
			c, rest = Update(c, rest[:k]), rest[k:]
		}
		if c != want {
			t.Fatalf("len %d: chained %#x, want %#x", len(p), c, want)
		}
	}
}

// TestCheckValue is the catalogue check value of CRC-64/XZ, the parameter
// set hash/crc64's ECMA table computes.
func TestCheckValue(t *testing.T) {
	if got := Checksum([]byte("123456789")); got != 0x995DC9BBDF1939FA {
		t.Fatalf("Checksum(123456789) = %#x", got)
	}
}

// TestFoldConstants derives the four fold constants a second way, from the
// stdlib itself: the raw register after hashing 0x01 and L-1 zero bytes
// from zero is x^(8L-1) · x^64 mod P, bit-reflected like foldK.
func TestFoldConstants(t *testing.T) {
	raw := func(l int) uint64 {
		p := make([]byte, l)
		p[0] = 1
		return ^stdlib(^uint64(0), p)
	}
	for i, d := range []int{512, 128} {
		if got, want := foldK[2*i], raw(d/8); got != want {
			t.Errorf("x^(%d+63) mod P = %#x, want %#x", d, got, want)
		}
		if got, want := foldK[2*i+1], raw(d/8-8); got != want {
			t.Errorf("x^(%d-1) mod P = %#x, want %#x", d, got, want)
		}
	}
}

func FuzzCRC(f *testing.F) {
	f.Add([]byte("123456789"), uint64(0), 4)
	f.Add(make([]byte, 4096), ^uint64(0), 1000)
	f.Add(make([]byte, 79), uint64(1)<<63, 64)
	f.Fuzz(func(t *testing.T, p []byte, reg uint64, split int) {
		if got, want := Update(reg, p), stdlib(reg, p); got != want {
			t.Fatalf("len %d: %#x, want %#x", len(p), got, want)
		}
		if split < 0 || split > len(p) {
			return
		}
		if got, want := Update(Update(reg, p[:split]), p[split:]), stdlib(reg, p); got != want {
			t.Fatalf("len %d split %d: %#x, want %#x", len(p), split, got, want)
		}
	})
}

var sink uint64

// BenchmarkChecksum4K is one metadata block: what refreshSums pays per
// block a commit changed.
func BenchmarkChecksum4K(b *testing.B) {
	p := make([]byte, 4096)
	rand.New(rand.NewSource(4)).Read(p)
	b.Run("selected", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for b.Loop() {
			sink = Checksum(p)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for b.Loop() {
			sink = crc64.Checksum(p, Table)
		}
	})
}
