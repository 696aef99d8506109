package storage

import (
	"bytes"
	"errors"
	"testing"

	"mobiceal/internal/prng"
)

func readBlock(t *testing.T, d Device, idx uint64) []byte {
	t.Helper()
	buf := make([]byte, d.BlockSize())
	if err := d.ReadBlock(idx, buf); err != nil {
		t.Fatalf("reading block %d: %v", idx, err)
	}
	return buf
}

func TestCrashDeviceBuffersUntilSync(t *testing.T) {
	inner := NewMemDevice(testBlockSize, 16)
	d := NewCrashDevice(inner)
	src := make([]byte, testBlockSize)
	fillPattern(src, 3)
	if err := d.WriteBlock(4, src); err != nil {
		t.Fatal(err)
	}
	// The device returns its own buffered write...
	if got := readBlock(t, d, 4); !bytes.Equal(got, src) {
		t.Fatal("read did not observe buffered write")
	}
	// ...but stable storage has not seen it.
	if got := readBlock(t, inner, 4); got[0] != 0 {
		t.Fatal("write reached stable storage before Sync")
	}
	if d.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", d.InFlight())
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := readBlock(t, inner, 4); !bytes.Equal(got, src) {
		t.Fatal("Sync did not persist the write")
	}
	if d.InFlight() != 0 {
		t.Fatalf("in-flight after sync = %d, want 0", d.InFlight())
	}
}

func TestCrashDevicePowerCutDropAll(t *testing.T) {
	inner := NewMemDevice(testBlockSize, 16)
	d := NewCrashDevice(inner)
	old := make([]byte, testBlockSize)
	fillPattern(old, 1)
	if err := d.WriteBlock(2, old); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, testBlockSize)
	fillPattern(junk, 9)
	if err := d.WriteBlock(2, junk); err != nil {
		t.Fatal(err)
	}
	d.PowerCutDropAll()
	buf := make([]byte, testBlockSize)
	if err := d.ReadBlock(2, buf); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("read while down err = %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("sync while down err = %v", err)
	}
	d.Restart()
	if got := readBlock(t, d, 2); !bytes.Equal(got, old) {
		t.Fatal("restart did not expose the last synced content")
	}
}

func TestCrashDeviceEnumeration(t *testing.T) {
	inner := NewMemDevice(testBlockSize, 16)
	d := NewCrashDevice(inner)
	base := make([]byte, testBlockSize)
	fillPattern(base, 100)
	if err := d.WriteBlock(0, base); err != nil {
		t.Fatal(err)
	}
	if err := d.StartRecording(); err != nil {
		t.Fatal(err)
	}
	// Three sync barriers; block 0 rewritten twice, blocks 1 and 2 once.
	vals := make([][]byte, 4)
	writes := []struct {
		idx uint64
		val byte
	}{{1, 11}, {0, 22}, {2, 33}, {0, 44}}
	for i, w := range writes {
		vals[i] = make([]byte, testBlockSize)
		fillPattern(vals[i], w.val)
		if err := d.WriteBlock(w.idx, vals[i]); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.PersistedWrites(); n != 4 {
		t.Fatalf("persisted writes = %d, want 4", n)
	}
	// Expected content of blocks 0..2 after each crash index.
	want := func(n int) [3][]byte {
		out := [3][]byte{base, make([]byte, testBlockSize), make([]byte, testBlockSize)}
		for i := 0; i < n; i++ {
			out[writes[i].idx] = vals[i]
		}
		return out
	}
	for n := 0; n <= 4; n++ {
		img, err := d.CrashImage(n)
		if err != nil {
			t.Fatal(err)
		}
		w := want(n)
		for blk := uint64(0); blk < 3; blk++ {
			if got := readBlock(t, img, blk); !bytes.Equal(got, w[blk]) {
				t.Fatalf("crash index %d block %d: wrong content", n, blk)
			}
		}
	}
}

func TestCrashDeviceTornImage(t *testing.T) {
	inner := NewMemDevice(testBlockSize, 8)
	d := NewCrashDevice(inner)
	old := make([]byte, testBlockSize)
	fillPattern(old, 5)
	if err := d.WriteBlock(3, old); err != nil {
		t.Fatal(err)
	}
	if err := d.StartRecording(); err != nil {
		t.Fatal(err)
	}
	neu := make([]byte, testBlockSize)
	fillPattern(neu, 6)
	if err := d.WriteBlock(3, neu); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	const cut = testBlockSize / 2
	img, err := d.CrashImageTorn(0, cut)
	if err != nil {
		t.Fatal(err)
	}
	got := readBlock(t, img, 3)
	if !bytes.Equal(got[:cut], neu[:cut]) || !bytes.Equal(got[cut:], old[cut:]) {
		t.Fatal("torn block is not new-prefix/old-suffix")
	}
	// Torn index must address an existing write.
	if _, err := d.CrashImageTorn(1, cut); err == nil {
		t.Fatal("torn image past the log succeeded")
	}
}

func TestCrashImagesAreIndependent(t *testing.T) {
	inner := NewMemDevice(testBlockSize, 8)
	d := NewCrashDevice(inner)
	if err := d.StartRecording(); err != nil {
		t.Fatal(err)
	}
	v := make([]byte, testBlockSize)
	fillPattern(v, 7)
	if err := d.WriteBlock(1, v); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	a, err := d.CrashImage(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.CrashImage(1)
	if err != nil {
		t.Fatal(err)
	}
	scribble := make([]byte, testBlockSize)
	fillPattern(scribble, 200)
	if err := a.WriteBlock(1, scribble); err != nil {
		t.Fatal(err)
	}
	if got := readBlock(t, b, 1); !bytes.Equal(got, v) {
		t.Fatal("write to one crash image leaked into another")
	}
	if got := readBlock(t, inner, 1); !bytes.Equal(got, v) {
		t.Fatal("write to a crash image leaked into the live device")
	}
}

func TestCrashDevicePowerCutSubset(t *testing.T) {
	inner := NewMemDevice(testBlockSize, 64)
	d := NewCrashDevice(inner)
	olds := make(map[uint64][]byte)
	news := make(map[uint64][]byte)
	for idx := uint64(0); idx < 32; idx++ {
		old := make([]byte, testBlockSize)
		fillPattern(old, byte(idx))
		olds[idx] = old
		if err := d.WriteBlock(idx, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < 32; idx++ {
		neu := make([]byte, testBlockSize)
		fillPattern(neu, byte(128+idx))
		news[idx] = neu
		if err := d.WriteBlock(idx, neu); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PowerCut(prng.NewSource(42)); err != nil {
		t.Fatal(err)
	}
	d.Restart()
	var dropped, full, torn int
	for idx := uint64(0); idx < 32; idx++ {
		got := readBlock(t, d, idx)
		switch {
		case bytes.Equal(got, olds[idx]):
			dropped++
		case bytes.Equal(got, news[idx]):
			full++
		default:
			// Must be new-prefix/old-suffix at some boundary.
			cut := 0
			for cut < testBlockSize && got[cut] == news[idx][cut] {
				cut++
			}
			if !bytes.Equal(got[cut:], olds[idx][cut:]) {
				t.Fatalf("block %d is neither old, new, nor torn", idx)
			}
			torn++
		}
	}
	// With 32 blocks and a 1/3 chance each, all three outcomes occur.
	if dropped == 0 || full == 0 || torn == 0 {
		t.Fatalf("outcomes dropped/full/torn = %d/%d/%d; want all nonzero", dropped, full, torn)
	}
}

// TestCrashDeviceFlushRetryAfterInnerFault fails the stable medium mid-
// flush and verifies the crash device resumes the flush cleanly on retry:
// no nil cache dereferences, no phantom log entries for writes that never
// landed.
func TestCrashDeviceFlushRetryAfterInnerFault(t *testing.T) {
	mem := NewMemDevice(testBlockSize, 16)
	faulty := NewFlakyDevice(mem, FlakyOptions{})
	d := NewCrashDevice(faulty)
	if err := d.StartRecording(); err != nil {
		t.Fatal(err)
	}
	vals := make(map[uint64][]byte)
	for idx := uint64(0); idx < 6; idx++ {
		v := make([]byte, testBlockSize)
		fillPattern(v, byte(40+idx))
		vals[idx] = v
		if err := d.WriteBlock(idx, v); err != nil {
			t.Fatal(err)
		}
	}
	faulty.FailAfter(OpWrite, 3, nil)
	if err := d.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync with inner fault err = %v, want ErrInjected", err)
	}
	if got := d.PersistedWrites(); got != 3 {
		t.Fatalf("log after failed flush = %d entries, want 3 (no phantom writes)", got)
	}
	faulty.Disarm()
	if err := d.Sync(); err != nil {
		t.Fatalf("retry sync: %v", err)
	}
	if got := d.PersistedWrites(); got != 6 {
		t.Fatalf("log after retry = %d entries, want 6", got)
	}
	if d.InFlight() != 0 {
		t.Fatalf("in-flight after retry = %d, want 0", d.InFlight())
	}
	for idx, want := range vals {
		if got := readBlock(t, mem, idx); !bytes.Equal(got, want) {
			t.Fatalf("block %d not persisted after retried flush", idx)
		}
	}
}
