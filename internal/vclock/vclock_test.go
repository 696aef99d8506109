package vclock

import (
	"testing"
	"time"

	"mobiceal/internal/dm"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/xcrypto"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %v", c.Now())
	}
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", got)
	}
}

func TestClockIgnoresNegativeAdvance(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	c.Advance(-10 * time.Second)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now = %v, want 1s", got)
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(time.Hour)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Now after Reset = %v", c.Now())
	}
}

func TestStopwatch(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Second)
	sw := NewStopwatch(&c)
	c.Advance(7 * time.Second)
	if got := sw.Elapsed(); got != 7*time.Second {
		t.Fatalf("Elapsed = %v, want 7s", got)
	}
}

func TestMeterSequentialVsRandom(t *testing.T) {
	profile := Profile{
		SeqWriteBps:      1 * mb,
		RandWritePenalty: 10 * time.Millisecond,
	}
	var c Clock
	m := NewMeter(&c, profile)

	// First write is "random" (no predecessor).
	m.ChargeWrite(0, 1024)
	afterFirst := c.Now()
	if afterFirst < 10*time.Millisecond {
		t.Fatalf("first write did not pay random penalty: %v", afterFirst)
	}

	// Sequential continuation pays only streaming cost: 1 KB at 1 MB/s ~ 1ms.
	m.ChargeWrite(1, 1024)
	seqCost := c.Now() - afterFirst
	if seqCost >= 10*time.Millisecond {
		t.Fatalf("sequential write paid a penalty: %v", seqCost)
	}

	// Jump pays the penalty again.
	before := c.Now()
	m.ChargeWrite(100, 1024)
	if got := c.Now() - before; got < 10*time.Millisecond {
		t.Fatalf("random write did not pay penalty: %v", got)
	}
}

func TestMeterReadWriteIndependentSequentiality(t *testing.T) {
	profile := Profile{
		SeqReadBps:       1 * mb,
		SeqWriteBps:      1 * mb,
		RandReadPenalty:  5 * time.Millisecond,
		RandWritePenalty: 5 * time.Millisecond,
	}
	var c Clock
	m := NewMeter(&c, profile)
	m.ChargeWrite(10, 1024)
	m.ChargeWrite(11, 1024)
	before := c.Now()
	// A read at 12 is the first read: pays penalty even though writes were
	// at 10, 11.
	m.ChargeRead(12, 1024)
	if got := c.Now() - before; got < 5*time.Millisecond {
		t.Fatalf("first read did not pay its own penalty: %v", got)
	}
}

func TestMeterCryptoAccounting(t *testing.T) {
	profile := Profile{CryptBps: 1 * mb}
	var c Clock
	m := NewMeter(&c, profile)
	m.ChargeCrypto(1 << 20)
	if got := c.Now(); got < 900*time.Millisecond || got > 1100*time.Millisecond {
		t.Fatalf("1 MB at 1 MB/s took %v, want about 1s", got)
	}
}

func TestMeterZeroRatesCostNothing(t *testing.T) {
	var c Clock
	m := NewMeter(&c, Profile{})
	m.ChargeWrite(0, 4096)
	m.ChargeRead(0, 4096)
	m.ChargeCrypto(4096)
	m.ChargeRandFill(1 << 30)
	if c.Now() != 0 {
		t.Fatalf("zero-rate profile accumulated %v", c.Now())
	}
}

func TestMeterRandFill(t *testing.T) {
	profile := Profile{RandFillBps: 2 * mb}
	var c Clock
	m := NewMeter(&c, profile)
	m.ChargeRandFill(4 * 1 << 20)
	if got := c.Now(); got < 1900*time.Millisecond || got > 2100*time.Millisecond {
		t.Fatalf("4 MB at 2 MB/s took %v, want about 2s", got)
	}
}

func TestCostDeviceChargesMeter(t *testing.T) {
	profile := Profile{
		SeqWriteBps:      1 * mb,
		SeqReadBps:       1 * mb,
		RandReadPenalty:  time.Millisecond,
		RandWritePenalty: time.Millisecond,
	}
	var c Clock
	m := NewMeter(&c, profile)
	mem := storage.NewMemDevice(4096, 16)
	d := NewCostDevice(mem, m, Flash)

	buf := make([]byte, 4096)
	if err := d.WriteBlock(0, buf); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if c.Now() == 0 {
		t.Fatal("cost device charged nothing")
	}
}

func TestCostDeviceDoesNotChargeFailedIO(t *testing.T) {
	var c Clock
	m := NewMeter(&c, Profile{RandWritePenalty: time.Second})
	d := NewCostDevice(storage.NewMemDevice(4096, 2), m, Flash)
	buf := make([]byte, 4096)
	if err := d.WriteBlock(5, buf); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if c.Now() != 0 {
		t.Fatalf("failed I/O charged %v", c.Now())
	}
}

func TestNilMeterWrapsNothing(t *testing.T) {
	mem := storage.NewMemDevice(4096, 2)
	for _, rule := range []Rule{Flash, Thin, Crypt} {
		if d := NewCostDevice(mem, nil, rule); d != storage.Device(mem) {
			t.Fatalf("nil meter wrapped the device: %T", d)
		}
	}
	var m *Meter
	m.ChargeCrypto(4096) // a nil meter charges nothing
}

// cryptOver is a crypt view of a fresh MemDevice, charged to m by the crypt
// rule the way a metered system charges it.
func cryptOver(t *testing.T, m *Meter, bs int, blocks uint64) storage.Device {
	t.Helper()
	key, err := prng.Bytes(prng.NewSeededEntropy(7), 64)
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := xcrypto.NewXTSPlain64(key)
	if err != nil {
		t.Fatal(err)
	}
	return NewCostDevice(dm.NewCrypt(storage.NewMemDevice(bs, blocks), cipher), m, Crypt)
}

func TestCryptChargesMeter(t *testing.T) {
	const bs = 4096
	var clock Clock
	meter := NewMeter(&clock, Profile{CryptBps: 1024 * 1024})
	c := cryptOver(t, meter, bs, 8)
	buf := make([]byte, bs)
	if err := c.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if got, want := clock.Now(), 2*bytesDuration(bs, 1024*1024); got != want {
		t.Fatalf("crypto charged %v, want %v (two blocks)", got, want)
	}
}

// TestCryptVecMeterParity asserts the virtual-clock charges of a vec op
// equal the flat op's: per-block traversal, per-byte crypto — invariant to
// segmentation, so testbed metrics cannot drift when schedulers merge.
func TestCryptVecMeterParity(t *testing.T) {
	const bs, blocks = 512, 64
	src := prng.NewSource(7)
	// vecOver carves buf into a random whole-block segmentation.
	vecOver := func(buf []byte) storage.BlockVec {
		var segs [][]byte
		n := len(buf) / bs
		for off := 0; off < n; {
			seg := 1 + int(src.Uint64n(4))
			if seg > n-off {
				seg = n - off
			}
			segs = append(segs, buf[off*bs:(off+seg)*bs])
			off += seg
		}
		return storage.Vec(bs, segs...)
	}
	charge := func(vec bool) time.Duration {
		var clock Clock
		meter := NewMeter(&clock, Nexus4())
		c := cryptOver(t, meter, bs, blocks)
		buf := make([]byte, 12*bs)
		var werr, rerr error
		if vec {
			werr = storage.WriteBlocksVec(c, 3, vecOver(buf))
			rerr = storage.ReadBlocksVec(c, 3, vecOver(buf))
		} else {
			werr = storage.WriteBlocks(c, 3, buf)
			rerr = storage.ReadBlocks(c, 3, buf)
		}
		if werr != nil || rerr != nil {
			t.Fatal(werr, rerr)
		}
		return clock.Now()
	}
	if flat, vec := charge(false), charge(true); flat != vec {
		t.Fatalf("virtual time differs: flat %v, vec %v", flat, vec)
	}
}

func TestBuiltinProfilesSane(t *testing.T) {
	for _, p := range []Profile{Nexus4(), HiveSSD(), DefyNandsim(), Nexus6P()} {
		if p.Name == "" {
			t.Error("profile with empty name")
		}
		if p.SeqReadBps <= 0 || p.SeqWriteBps <= 0 || p.CryptBps <= 0 {
			t.Errorf("%s: non-positive bandwidth", p.Name)
		}
		if p.RebootTime <= 0 {
			t.Errorf("%s: non-positive reboot time", p.Name)
		}
	}
	// Relative calibration facts the experiments rely on.
	n4, ssd, nand := Nexus4(), HiveSSD(), DefyNandsim()
	if !(n4.SeqWriteBps < ssd.SeqWriteBps && ssd.SeqWriteBps < nand.SeqWriteBps) {
		t.Error("expected nexus4 < ssd < nandsim write bandwidth ordering")
	}
	if nand.CryptBps >= nand.SeqWriteBps {
		t.Error("nandsim must be crypto-bound (CryptBps < SeqWriteBps)")
	}
}
