package hive

import (
	"bytes"
	"errors"
	"testing"

	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
)

const blockSize = 4096

func newDevice(t testing.TB, seed uint64, physBlocks uint64) *Device {
	t.Helper()
	key, err := prng.Bytes(prng.NewSeededEntropy(seed), 32)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(storage.NewMemDevice(blockSize, physBlocks), key, Config{
		Entropy: prng.NewSeededEntropy(seed + 1),
		Src:     prng.NewSource(seed + 2),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestReadYourWrites(t *testing.T) {
	d := newDevice(t, 1, 512)
	if d.logical < 4 {
		t.Fatalf("logical = %d", d.logical)
	}
	src := prng.NewSource(3)
	content := map[uint64][]byte{}
	for i := 0; i < 50; i++ {
		idx := src.Uint64n(d.logical)
		buf := make([]byte, blockSize)
		if _, err := src.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlock(idx, buf); err != nil {
			t.Fatalf("WriteBlock(%d): %v", idx, err)
		}
		content[idx] = buf
	}
	got := make([]byte, blockSize)
	for idx, want := range content {
		if err := d.ReadBlock(idx, got); err != nil {
			t.Fatalf("ReadBlock(%d): %v", idx, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: content mismatch", idx)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := newDevice(t, 4, 256)
	buf := bytes.Repeat([]byte{0xEE}, blockSize)
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
}

func TestOverwrite(t *testing.T) {
	d := newDevice(t, 5, 256)
	a := bytes.Repeat([]byte{1}, blockSize)
	b := bytes.Repeat([]byte{2}, blockSize)
	if err := d.WriteBlock(3, a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlock(3, b); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := d.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("overwrite lost")
	}
}

func TestBoundsAndBuffers(t *testing.T) {
	d := newDevice(t, 6, 256)
	buf := make([]byte, blockSize)
	if err := d.ReadBlock(d.logical, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("read err = %v", err)
	}
	if err := d.WriteBlock(d.logical, buf); !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("write err = %v", err)
	}
	if err := d.WriteBlock(0, buf[:8]); !errors.Is(err, storage.ErrBadBuffer) {
		t.Fatalf("bad buffer err = %v", err)
	}
}

func TestRejectsTinyDevice(t *testing.T) {
	key := make([]byte, 32)
	if _, err := New(storage.NewMemDevice(blockSize, 4), key, Config{
		Entropy: prng.NewSeededEntropy(1),
	}); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("err = %v, want ErrTooSmall", err)
	}
}

func TestRejectsBadKey(t *testing.T) {
	if _, err := New(storage.NewMemDevice(blockSize, 256), make([]byte, 16), Config{
		Entropy: prng.NewSeededEntropy(1),
	}); err == nil {
		t.Fatal("16-byte key accepted")
	}
}

// writeRecorder records the index of every block written through it, in
// order.
type writeRecorder struct {
	storage.Device
	writes []uint64
}

func (r *writeRecorder) ReadBlock(idx uint64, dst []byte) error {
	return storage.DoBlock(r, storage.OpRead, idx, dst)
}

func (r *writeRecorder) WriteBlock(idx uint64, src []byte) error {
	return storage.DoBlock(r, storage.OpWrite, idx, src)
}

func (r *writeRecorder) Do(reqs []storage.Req) error {
	err := storage.Do(r.Device, reqs)
	for i := range reqs {
		if q := &reqs[i]; q.Op == storage.OpWrite && q.OK() {
			for b := 0; b < q.Blocks(); b++ {
				r.writes = append(r.writes, q.Start+uint64(b))
			}
		}
	}
	return err
}

func TestWritesTouchRandomSlots(t *testing.T) {
	// The write-only ORAM property our Table I numbers rest on: physical
	// write locations are spread uniformly, not clustered at the logical
	// address.
	rec := &writeRecorder{Device: storage.NewMemDevice(blockSize, 1024)}
	key := make([]byte, 32)
	d, err := New(rec, key, Config{
		Entropy: prng.NewSeededEntropy(7),
		Src:     prng.NewSource(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.writes = nil
	buf := make([]byte, blockSize)
	// Write the SAME logical block repeatedly.
	for i := 0; i < 30; i++ {
		if err := d.WriteBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	dataWrites := map[uint64]bool{}
	for _, idx := range rec.writes {
		if idx < d.slots {
			dataWrites[idx] = true
		}
	}
	if len(dataWrites) < 20 {
		t.Fatalf("30 writes to one logical block touched only %d distinct slots", len(dataWrites))
	}
}

func TestWriteAmplification(t *testing.T) {
	mem := storage.NewMemDevice(blockSize, 1024)
	stats := storage.NewStatsDevice(mem)
	key := make([]byte, 32)
	d, err := New(stats, key, Config{
		Entropy: prng.NewSeededEntropy(9),
		Src:     prng.NewSource(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	w0 := stats.Metrics().WriteBlocks.Load()
	buf := make([]byte, blockSize)
	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := d.WriteBlock(i%d.logical, buf); err != nil {
			t.Fatal(err)
		}
	}
	amp := float64(stats.Metrics().WriteBlocks.Load()-w0) / n
	// k=3 data-slot writes + IV-table writes + map writes per logical
	// write: amplification must be well above 3.
	if amp < 3 {
		t.Fatalf("write amplification %.1f, expected >= 3", amp)
	}
}

func TestMeterChargedForCrypto(t *testing.T) {
	// Crypto is the profile's only cost: any time charged is crypto.
	var clock vclock.Clock
	meter := vclock.NewMeter(&clock, vclock.Profile{CryptBps: vclock.HiveSSD().CryptBps})
	key := make([]byte, 32)
	mem := storage.NewMemDevice(blockSize, 512)
	d, err := New(vclock.NewCostDevice(mem, meter, vclock.Flash), key, Config{
		Entropy: prng.NewSeededEntropy(11),
		Src:     prng.NewSource(12),
		Meter:   meter,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == 0 {
		t.Fatal("no crypto charged")
	}
}

func TestReadsChargeMapLookup(t *testing.T) {
	// A real HIVE pays a position-map block read per logical read; the
	// physical read count must reflect it (map lookup + data slot).
	mem := storage.NewMemDevice(blockSize, 512)
	stats := storage.NewStatsDevice(mem)
	key := make([]byte, 32)
	d, err := New(stats, key, Config{
		Entropy: prng.NewSeededEntropy(20),
		Src:     prng.NewSource(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	r0 := stats.Metrics().ReadBlocks.Load()
	const reads = 10
	for i := 0; i < reads; i++ {
		if err := d.ReadBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := stats.Metrics().ReadBlocks.Load() - r0; n < 2*reads {
		t.Fatalf("physical reads %d < %d (map lookups not charged)", n, 2*reads)
	}
}

func TestRepeatedOverwritesStayCorrectUnderChurn(t *testing.T) {
	// Long overwrite churn exercises slot recycling: stale slots must be
	// freed and reused without ever corrupting live data.
	d := newDevice(t, 22, 1024)
	logical := d.logical
	src := prng.NewSource(23)
	shadow := make(map[uint64]byte)
	buf := make([]byte, blockSize)
	for i := 0; i < 500; i++ {
		idx := src.Uint64n(logical)
		fill := byte(src.Uint64())
		for j := range buf {
			buf[j] = fill
		}
		if err := d.WriteBlock(idx, buf); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		shadow[idx] = fill
	}
	for idx, fill := range shadow {
		if err := d.ReadBlock(idx, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != fill || buf[blockSize-1] != fill {
			t.Fatalf("block %d holds %d, want %d", idx, buf[0], fill)
		}
	}
}

func TestStashDrains(t *testing.T) {
	d := newDevice(t, 13, 2048)
	buf := make([]byte, blockSize)
	for i := uint64(0); i < d.logical; i++ {
		if err := d.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(d.stash); got > d.cfg.MaxStash {
		t.Fatalf("stash = %d > bound %d", got, d.cfg.MaxStash)
	}
}
