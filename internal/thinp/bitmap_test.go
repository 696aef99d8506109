package thinp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mobiceal/internal/prng"
)

func TestBitmapSetClearCounts(t *testing.T) {
	b := NewBitmap(100)
	if b.Free() != 100 || b.Allocated() != 0 {
		t.Fatalf("fresh bitmap: free=%d alloc=%d", b.Free(), b.Allocated())
	}
	if err := b.Set(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Set(3); err != nil { // idempotent
		t.Fatal(err)
	}
	if b.Allocated() != 1 {
		t.Fatalf("alloc=%d after double Set", b.Allocated())
	}
	if !b.IsAllocated(3) || b.IsAllocated(4) {
		t.Fatal("IsAllocated wrong")
	}
	if err := b.Clear(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Clear(3); err != nil { // idempotent
		t.Fatal(err)
	}
	if b.Allocated() != 0 {
		t.Fatalf("alloc=%d after double Clear", b.Allocated())
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	b := NewBitmap(10)
	if err := b.Set(10); err == nil {
		t.Fatal("Set(10) on 10-bit map succeeded")
	}
	if err := b.Clear(10); err == nil {
		t.Fatal("Clear(10) on 10-bit map succeeded")
	}
	if !b.IsAllocated(10) {
		t.Fatal("out-of-range must report allocated")
	}
}

func TestBitmapNthFree(t *testing.T) {
	b := NewBitmap(10)
	for _, i := range []uint64{0, 2, 4} {
		if err := b.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	// Free blocks: 1,3,5,6,7,8,9.
	want := []uint64{1, 3, 5, 6, 7, 8, 9}
	for n, w := range want {
		got, err := b.NthFree(uint64(n))
		if err != nil {
			t.Fatalf("NthFree(%d): %v", n, err)
		}
		if got != w {
			t.Fatalf("NthFree(%d) = %d, want %d", n, got, w)
		}
	}
	if _, err := b.NthFree(7); !errors.Is(err, ErrBitmapFull) {
		t.Fatalf("NthFree(7) err = %v, want ErrBitmapFull", err)
	}
}

func TestBitmapNthFreeAcrossWords(t *testing.T) {
	b := NewBitmap(200)
	// Allocate the whole first word plus some.
	for i := uint64(0); i < 70; i++ {
		if err := b.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.NthFree(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 70 {
		t.Fatalf("NthFree(0) = %d, want 70", got)
	}
	got, err = b.NthFree(129)
	if err != nil {
		t.Fatal(err)
	}
	if got != 199 {
		t.Fatalf("NthFree(last) = %d, want 199", got)
	}
}

func TestBitmapNextFreeWraps(t *testing.T) {
	b := NewBitmap(8)
	for i := uint64(4); i < 8; i++ {
		if err := b.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := b.NextFree(6) // 6,7 allocated; wraps to 0
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("NextFree(6) = %d, want 0", got)
	}
	for i := uint64(0); i < 4; i++ {
		if err := b.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.NextFree(0); !errors.Is(err, ErrBitmapFull) {
		t.Fatalf("full NextFree err = %v", err)
	}
}

func TestBitmapMarshalRoundtrip(t *testing.T) {
	b := NewBitmap(130) // straddles word boundary with a partial tail word
	for _, i := range []uint64{0, 63, 64, 127, 128, 129} {
		if err := b.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, b.MarshaledLen())
	if _, err := b.MarshalTo(buf); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBitmap(130, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Allocated() != b.Allocated() {
		t.Fatalf("allocated = %d, want %d", got.Allocated(), b.Allocated())
	}
	for i := uint64(0); i < 130; i++ {
		if got.IsAllocated(i) != b.IsAllocated(i) {
			t.Fatalf("bit %d differs after roundtrip", i)
		}
	}
}

func TestBitmapMarshalShortBuffer(t *testing.T) {
	b := NewBitmap(100)
	if _, err := b.MarshalTo(make([]byte, 4)); err == nil {
		t.Fatal("MarshalTo with short buffer succeeded")
	}
	if _, err := UnmarshalBitmap(100, make([]byte, 4)); err == nil {
		t.Fatal("UnmarshalBitmap with short buffer succeeded")
	}
}

func TestBitmapClone(t *testing.T) {
	b := NewBitmap(64)
	if err := b.Set(5); err != nil {
		t.Fatal(err)
	}
	c := b.Clone()
	if err := c.Set(6); err != nil {
		t.Fatal(err)
	}
	if b.IsAllocated(6) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.IsAllocated(5) {
		t.Fatal("clone lost original bit")
	}
}

// Property: NthFree(n) always returns a free block, and distinct n map to
// distinct blocks.
func TestBitmapPropertyNthFree(t *testing.T) {
	f := func(seed uint64, allocRaw []uint16) bool {
		const nbits = 256
		b := NewBitmap(nbits)
		for _, a := range allocRaw {
			if err := b.Set(uint64(a) % nbits); err != nil {
				return false
			}
		}
		free := b.Free()
		seen := map[uint64]bool{}
		for n := uint64(0); n < free; n++ {
			idx, err := b.NthFree(n)
			if err != nil || b.IsAllocated(idx) || seen[idx] {
				return false
			}
			seen[idx] = true
		}
		return uint64(len(seen)) == free
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// scanFree is the linear reference for NthFree: every free block in
// ascending order, so scanFree(b)[n] is the n-th free block.
func scanFree(b *Bitmap) []uint64 {
	var free []uint64
	for i := uint64(0); i < b.Size(); i++ {
		if b.words[i/64]&(1<<(i%64)) == 0 {
			free = append(free, i)
		}
	}
	return free
}

// checkAgainstScan requires b's rank index to equal a recount and NthFree
// to equal the linear reference at every rank, and one past the last.
func checkAgainstScan(t testing.TB, b *Bitmap) {
	t.Helper()
	if err := b.checkIndex(); err != nil {
		t.Fatal(err)
	}
	free := scanFree(b)
	if uint64(len(free)) != b.Free() {
		t.Fatalf("Free() = %d, reference scan finds %d", b.Free(), len(free))
	}
	for n, want := range free {
		if got, err := b.NthFree(uint64(n)); err != nil || got != want {
			t.Fatalf("NthFree(%d) of %d bits = %d, %v; reference scan says %d", n, b.Size(), got, err, want)
		}
	}
	if _, err := b.NthFree(uint64(len(free))); !errors.Is(err, ErrBitmapFull) {
		t.Fatalf("NthFree(%d) past the free count: err = %v, want ErrBitmapFull", len(free), err)
	}
}

// TestBitmapNthFreeMatchesScan checks the indexed NthFree against the
// linear reference at every rank, after random Set/Clear/Clone/
// UnmarshalBitmap sequences, on sizes at and around the word and the
// 512-block index group boundaries. Each run sweeps the allocation
// density up to nearly full and back, so empty, partial and full groups
// all occur.
func TestBitmapNthFreeMatchesScan(t *testing.T) {
	for _, nbits := range []uint64{1, 63, 64, 511, 513, 1500, 2048 + 77} {
		rng := rand.New(rand.NewSource(int64(nbits)))
		b := NewBitmap(nbits)
		checkAgainstScan(t, b)
		const steps = 60
		for step := 0; step < steps; step++ {
			// Density ramps up over the first half and down over the second.
			setP := 0.9
			if step >= steps/2 {
				setP = 0.1
			}
			for k := 0; k < int(nbits/8)+1; k++ {
				i := uint64(rng.Int63n(int64(nbits)))
				var err error
				if rng.Float64() < setP {
					err = b.Set(i)
				} else {
					err = b.Clear(i)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			switch rng.Intn(4) {
			case 0:
				c := b.Clone()
				// The clone's index is its own: mutating it leaves b intact.
				_ = c.Set(uint64(rng.Int63n(int64(nbits))))
				_ = c.Clear(uint64(rng.Int63n(int64(nbits))))
				checkAgainstScan(t, c)
				checkAgainstScan(t, b)
				b = c
			case 1:
				buf := make([]byte, b.MarshaledLen())
				if _, err := b.MarshalTo(buf); err != nil {
					t.Fatal(err)
				}
				u, err := UnmarshalBitmap(nbits, buf)
				if err != nil {
					t.Fatal(err)
				}
				b = u
			}
			checkAgainstScan(t, b)
		}
		for i := uint64(0); i < nbits; i++ {
			if err := b.Set(i); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstScan(t, b) // full: every rank is past the end
	}
}

// FuzzBitmap feeds arbitrary bytes to UnmarshalBitmap, the parser of the
// on-disk bitmap region, and requires the rebuilt rank index to equal a
// recount and NthFree to equal the linear reference — before and after a
// few Set/Clear steps driven by the same bytes.
func FuzzBitmap(f *testing.F) {
	f.Add(uint16(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint16(64), []byte{0x55, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint16(513), make([]byte, 72))
	f.Add(uint16(1500), bytes.Repeat([]byte{0xf0, 0x0f, 0xff, 0}, 47))
	f.Fuzz(func(t *testing.T, n uint16, raw []byte) {
		nbits := uint64(n % 4096)
		b, err := UnmarshalBitmap(nbits, raw)
		if err != nil {
			if len(raw) >= int((nbits+63)/64*8) {
				t.Fatalf("UnmarshalBitmap(%d, %d bytes): %v", nbits, len(raw), err)
			}
			return
		}
		checkAgainstScan(t, b)
		if nbits == 0 {
			return
		}
		for k, c := range raw[:min(len(raw), 16)] {
			i := (uint64(c) << 4 * uint64(k+1)) % nbits
			if c&1 == 0 {
				_ = b.Set(i)
			} else {
				_ = b.Clear(i)
			}
		}
		checkAgainstScan(t, b)
	})
}

func TestSequentialAllocatorAscending(t *testing.T) {
	b := NewBitmap(32)
	a := NewSequentialAllocator()
	var prev uint64
	for i := 0; i < 10; i++ {
		idx, err := a.PickFree(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Set(idx); err != nil {
			t.Fatal(err)
		}
		if i > 0 && idx != prev+1 {
			t.Fatalf("allocation %d: got %d, want %d", i, idx, prev+1)
		}
		prev = idx
	}
}

func TestSequentialAllocatorSkipsAllocated(t *testing.T) {
	b := NewBitmap(8)
	if err := b.Set(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Set(1); err != nil {
		t.Fatal(err)
	}
	a := NewSequentialAllocator()
	idx, err := a.PickFree(b)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("PickFree = %d, want 2", idx)
	}
}

func TestRandomAllocatorSpreads(t *testing.T) {
	b := NewBitmap(4096)
	a := NewRandomAllocator(prng.NewSource(1))
	var picks []uint64
	for i := 0; i < 64; i++ {
		idx, err := a.PickFree(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Set(idx); err != nil {
			t.Fatal(err)
		}
		picks = append(picks, idx)
	}
	ascending := 0
	for i := 1; i < len(picks); i++ {
		if picks[i] == picks[i-1]+1 {
			ascending++
		}
	}
	if ascending > 5 {
		t.Fatalf("random allocator produced %d/63 consecutive picks", ascending)
	}
	// Spread check: picks should cover a wide range of the device.
	var min, max uint64 = picks[0], picks[0]
	for _, p := range picks {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if max-min < 1024 {
		t.Fatalf("random picks clustered in [%d, %d]", min, max)
	}
}

func TestAllocatorsReportFull(t *testing.T) {
	b := NewBitmap(4)
	for i := uint64(0); i < 4; i++ {
		if err := b.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewSequentialAllocator().PickFree(b); !errors.Is(err, ErrBitmapFull) {
		t.Fatalf("sequential err = %v", err)
	}
	if _, err := NewRandomAllocator(prng.NewSource(1)).PickFree(b); !errors.Is(err, ErrBitmapFull) {
		t.Fatalf("random err = %v", err)
	}
}

func TestAllocatorNames(t *testing.T) {
	if NewSequentialAllocator().Name() != "sequential" {
		t.Fatal("sequential name")
	}
	if NewRandomAllocator(prng.NewSource(1)).Name() != "random" {
		t.Fatal("random name")
	}
}
