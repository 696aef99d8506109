package storage

import (
	"errors"
	"testing"
)

// The fault-budget shape of FlakyDevice (FailAfter, Disarm): a device that
// dies after n block ops of a kind and stays dead until disarmed.

func TestFaultDeviceDisarmedPassesThrough(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 8), FlakyOptions{})
	buf := make([]byte, testBlockSize)
	for i := 0; i < 20; i++ {
		if err := d.WriteBlock(0, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := d.ReadBlock(0, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if s := d.Stats(); s.Budget[OpRead] != 0 || s.Budget[OpWrite] != 0 {
		t.Fatalf("failures = %d/%d", s.Budget[OpRead], s.Budget[OpWrite])
	}
}

func TestFaultDeviceFailsAfterBudget(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 8), FlakyOptions{})
	d.FailAfter(OpWrite, 3, nil)
	buf := make([]byte, testBlockSize)
	for i := 0; i < 3; i++ {
		if err := d.WriteBlock(0, buf); err != nil {
			t.Fatalf("write %d within budget: %v", i, err)
		}
	}
	if err := d.WriteBlock(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("write past budget err = %v", err)
	}
	if err := d.WriteBlock(1, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("subsequent write err = %v", err)
	}
	// Reads unaffected.
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if w := d.Stats().Budget[OpWrite]; w != 2 {
		t.Fatalf("failed writes = %d", w)
	}
}

func TestFaultDeviceReadFaultsAndDisarm(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 8), FlakyOptions{})
	d.FailAfter(OpRead, 0, nil)
	buf := make([]byte, testBlockSize)
	if err := d.ReadBlock(0, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v", err)
	}
	d.Disarm()
	if err := d.ReadBlock(0, buf); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
}

func TestFaultDeviceRangePartialCompletion(t *testing.T) {
	mem := NewMemDevice(testBlockSize, 16)
	d := NewFlakyDevice(mem, FlakyOptions{})
	d.FailAfter(OpWrite, 3, nil)
	src := make([]byte, 8*testBlockSize)
	for i := 0; i < 8; i++ {
		fillPattern(src[i*testBlockSize:(i+1)*testBlockSize], byte(10+i))
	}
	err := WriteBlocks(d, 0, src)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("range write err = %v, want ErrInjected", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("range write err = %T, want *PartialError", err)
	}
	if pe.Done != 3 {
		t.Fatalf("partial completion = %d blocks, want 3", pe.Done)
	}
	// Exactly the budgeted prefix landed.
	got := make([]byte, testBlockSize)
	for i := uint64(0); i < 8; i++ {
		if err := mem.ReadBlock(i, got); err != nil {
			t.Fatal(err)
		}
		want := byte(0)
		if i < 3 {
			want = src[i*testBlockSize]
		}
		if got[0] != want {
			t.Fatalf("block %d first byte = %d, want %d", i, got[0], want)
		}
	}
	// The budget is exhausted: later single-block writes fail too.
	if err := d.WriteBlock(0, src[:testBlockSize]); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after tripped range err = %v", err)
	}
}

func TestFaultDeviceRangeReadPartialCompletion(t *testing.T) {
	mem := NewMemDevice(testBlockSize, 16)
	for i := uint64(0); i < 8; i++ {
		b := make([]byte, testBlockSize)
		fillPattern(b, byte(20+i))
		if err := mem.WriteBlock(i, b); err != nil {
			t.Fatal(err)
		}
	}
	d := NewFlakyDevice(mem, FlakyOptions{})
	d.FailAfter(OpRead, 5, nil)
	dst := make([]byte, 8*testBlockSize)
	err := ReadBlocks(d, 0, dst)
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Done != 5 {
		t.Fatalf("range read err = %v, want PartialError with Done=5", err)
	}
	for i := 0; i < 5; i++ {
		if dst[i*testBlockSize] != byte(20+i) {
			t.Fatalf("prefix block %d not transferred", i)
		}
	}
	for i := 5; i < 8; i++ {
		if dst[i*testBlockSize] != 0 {
			t.Fatalf("block %d past the fault was transferred", i)
		}
	}
}

func TestFaultDeviceDoesNotWriteOnFault(t *testing.T) {
	mem := NewMemDevice(testBlockSize, 8)
	d := NewFlakyDevice(mem, FlakyOptions{})
	good := make([]byte, testBlockSize)
	fillPattern(good, 7)
	if err := d.WriteBlock(2, good); err != nil {
		t.Fatal(err)
	}
	d.FailAfter(OpWrite, 0, nil)
	bad := make([]byte, testBlockSize)
	fillPattern(bad, 9)
	if err := d.WriteBlock(2, bad); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	got := make([]byte, testBlockSize)
	if err := mem.ReadBlock(2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != good[0] {
		t.Fatal("failed write modified the device")
	}
}
