package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"mobiceal/internal/prng"
)

// plainDevice hides every transfer method of a device but the per-block
// ones, exercising the ladder's last rung.
type plainDevice struct{ Device }

// rangeOnlyDevice adds the flat RangeDevice methods and no vec ones.
// Nothing dispatches on RangeDevice, so it too is driven block by block and
// its methods must never be what serves a request.
type rangeOnlyDevice struct{ plainDevice }

func (d *rangeOnlyDevice) ReadBlocks(uint64, []byte) error  { panic("dispatched on RangeDevice") }
func (d *rangeOnlyDevice) WriteBlocks(uint64, []byte) error { panic("dispatched on RangeDevice") }

// testDevice builds one device of the given kind and geometry.
func testDevice(t *testing.T, kind string, bs int, blocks uint64) Device {
	t.Helper()
	mem := NewMemDevice(bs, blocks)
	switch kind {
	case "mem":
		return mem
	case "noise":
		return newNoisyMemDevice(t, bs, blocks, 99)
	case "file":
		fd, err := CreateFileDevice(filepath.Join(t.TempDir(), "img.bin"), bs, blocks)
		if err != nil {
			t.Fatalf("CreateFileDevice: %v", err)
		}
		t.Cleanup(func() { _ = fd.Close() })
		return fd
	case "slice":
		slice, err := NewSliceDevice(NewMemDevice(bs, blocks+31), 17, blocks)
		if err != nil {
			t.Fatalf("NewSliceDevice: %v", err)
		}
		return slice
	case "stats":
		return NewStatsDevice(mem)
	case "fault":
		return NewFlakyDevice(mem, FlakyOptions{})
	case "crash":
		return NewCrashDevice(mem)
	case "plain":
		return plainDevice{mem}
	case "rangeonly":
		return &rangeOnlyDevice{plainDevice{mem}}
	}
	t.Fatalf("unknown device kind %q", kind)
	return nil
}

// shapeMatchesBlockwise drives one device per named kind with a random mix
// of writes and reads moved through the given request shape, and
// cross-checks every step — and the final image — against a shadow device
// driven block by block.
func shapeMatchesBlockwise(t *testing.T, kinds map[string]string, bs int, blocks uint64, maxLen uint64,
	write, read func(src *prng.Source, d Device, start uint64, buf []byte) error) {
	for name, kind := range kinds {
		t.Run(name, func(t *testing.T) {
			src := prng.NewSource(0xd5e + uint64(len(name)))
			dev := testDevice(t, kind, bs, blocks)
			shadow := plainDevice{NewMemDevice(bs, blocks)}
			// Mirror the initial image so reads of blocks the run never
			// writes compare.
			init := make([]byte, int(blocks)*bs)
			if err := ReadBlocks(plainDevice{dev}, 0, init); err != nil {
				t.Fatalf("initial image: %v", err)
			}
			if err := WriteBlocks(shadow, 0, init); err != nil {
				t.Fatalf("priming shadow: %v", err)
			}
			for r := 0; r < 300; r++ {
				start := src.Uint64n(blocks)
				n := min(1+src.Uint64n(blocks-start), maxLen)
				buf, want := make([]byte, int(n)*bs), make([]byte, int(n)*bs)
				if src.Uint64n(2) == 0 {
					if _, err := src.Read(buf); err != nil {
						t.Fatal(err)
					}
					if err := write(src, dev, start, buf); err != nil {
						t.Fatalf("round %d: write of %d blocks at %d: %v", r, n, start, err)
					}
					if err := WriteBlocks(shadow, start, buf); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := read(src, dev, start, buf); err != nil {
					t.Fatalf("round %d: read of %d blocks at %d: %v", r, n, start, err)
				}
				if err := ReadBlocks(shadow, start, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("round %d: read at %d (%d blocks) diverges from per-block", r, start, n)
				}
			}
			got, want := make([]byte, len(init)), make([]byte, len(init))
			if err := read(src, dev, 0, got); err != nil {
				t.Fatalf("final read: %v", err)
			}
			if err := ReadBlocks(shadow, 0, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("final image diverges from per-block shadow")
			}
		})
	}
}

// TestRangeMatchesBlockwise: a flat request of any length is the per-block
// loop, on every device class and on the ladder's last rung.
func TestRangeMatchesBlockwise(t *testing.T) {
	kinds := map[string]string{"mem": "mem", "memnoise": "noise", "file": "file", "slice": "slice",
		"stats": "stats", "fault": "fault", "fallback": "plain"}
	flat := func(op func(Device, uint64, []byte) error) func(*prng.Source, Device, uint64, []byte) error {
		return func(_ *prng.Source, d Device, start uint64, buf []byte) error { return op(d, start, buf) }
	}
	shapeMatchesBlockwise(t, kinds, 512, 64, 64, flat(WriteBlocks), flat(ReadBlocks))
}

func TestRangeValidation(t *testing.T) {
	dev := NewMemDevice(512, 8)
	if err := ReadBlocks(dev, 0, make([]byte, 100)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("misaligned read err = %v, want ErrBadBuffer", err)
	}
	if err := WriteBlocks(dev, 6, make([]byte, 3*512)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overrun write err = %v, want ErrOutOfRange", err)
	}
	if err := ReadBlocks(dev, 9, nil); err != nil {
		t.Fatalf("zero-length range err = %v, want nil", err)
	}
	if err := WriteBlocks(dev, 0, make([]byte, 8*512)); err != nil {
		t.Fatalf("full-device write: %v", err)
	}
}

func TestStatsDeviceRangeAccounting(t *testing.T) {
	sd := NewStatsDevice(NewMemDevice(512, 32))
	if err := WriteBlocks(sd, 4, make([]byte, 5*512)); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	if err := ReadBlocks(sd, 0, make([]byte, 3*512)); err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	st := sd.Metrics().Snapshot()
	if st.WriteBlocks != 5 || st.BytesWrite != 5*512 {
		t.Fatalf("writes = %d/%d bytes, want 5/%d", st.WriteBlocks, st.BytesWrite, 5*512)
	}
	if st.ReadBlocks != 3 || st.BytesRead != 3*512 {
		t.Fatalf("reads = %d/%d bytes, want 3/%d", st.ReadBlocks, st.BytesRead, 3*512)
	}
}

func TestFaultDeviceRangeBudget(t *testing.T) {
	fd := NewFlakyDevice(NewMemDevice(512, 32), FlakyOptions{})
	fd.FailAfter(OpWrite, 8, nil)
	// A range within budget succeeds and consumes one unit per block.
	if err := WriteBlocks(fd, 0, make([]byte, 5*512)); err != nil {
		t.Fatalf("in-budget range write: %v", err)
	}
	// The next range would exceed the remaining budget of 3: whole-range
	// failure, like a merged bio erroring out.
	if err := WriteBlocks(fd, 0, make([]byte, 4*512)); !errors.Is(err, ErrInjected) {
		t.Fatalf("over-budget range err = %v, want ErrInjected", err)
	}
	if writes := fd.Stats().Budget[OpWrite]; writes != 1 {
		t.Fatalf("failed writes = %d, want 1", writes)
	}
	// Once failed, the device stays failed (the documented arming
	// contract): the rejected range consumed the remaining budget.
	if err := fd.WriteBlock(0, make([]byte, 512)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-failure write err = %v, want ErrInjected", err)
	}
	// Re-arming restores service.
	fd.Disarm()
	if err := fd.WriteBlock(0, make([]byte, 512)); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
}

func TestSnapshotRangeRead(t *testing.T) {
	dev := NewMemDevice(512, 16)
	data := make([]byte, 4*512)
	for i := range data {
		data[i] = byte(i)
	}
	if err := WriteBlocks(dev, 2, data); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	snap := dev.Snapshot()
	got := make([]byte, 16*512)
	if err := ReadBlocks(snap, 0, got); err != nil {
		t.Fatalf("snapshot ReadBlocks: %v", err)
	}
	want, err := ReadFull(plainDevice{snap}, 0, 16)
	if err != nil {
		t.Fatalf("snapshot per-block read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot vectored read diverges from per-block")
	}
	if err := WriteBlocks(snap, 0, make([]byte, 512)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot range write err = %v, want ErrReadOnly", err)
	}
}
