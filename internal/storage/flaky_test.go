package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestErrorClassHelpers(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 8), FlakyOptions{})
	d.FailAfter(OpWrite, 0, ErrTransient)
	buf := make([]byte, testBlockSize)
	err := d.WriteBlock(0, buf)
	if !errors.Is(err, ErrInjected) || !IsTransient(err) {
		t.Fatalf("classed fault = %v (injected=%v transient=%v)",
			err, errors.Is(err, ErrInjected), IsTransient(err))
	}
	if IsMedium(err) {
		t.Fatalf("transient fault classified as medium: %v", err)
	}

	// Classification survives PartialError wrapping on range ops.
	d.FailAfter(OpWrite, 1, ErrMedium)
	err = WriteBlocks(d, 0, make([]byte, 3*testBlockSize))
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Done != 1 {
		t.Fatalf("range fault = %v", err)
	}
	if !IsMedium(err) || IsTransient(err) {
		t.Fatalf("partial medium fault misclassified: %v", err)
	}

	if IsTransient(nil) || IsMedium(nil) || IsTransient(ErrClosed) {
		t.Fatal("unclassified errors must not match a class")
	}
}

func TestFaultDeviceFailSyncsAfter(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 8), FlakyOptions{})
	d.FailAfter(OpSync, 2, nil)
	for i := 0; i < 2; i++ {
		if err := d.Sync(); err != nil {
			t.Fatalf("sync %d within budget: %v", i, err)
		}
	}
	if err := d.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync past budget err = %v", err)
	}
	// Writes are not consumed by the sync budget.
	if err := d.WriteBlock(0, make([]byte, testBlockSize)); err != nil {
		t.Fatalf("write: %v", err)
	}
	d.Disarm()
	if err := d.Sync(); err != nil {
		t.Fatalf("sync after disarm: %v", err)
	}
}

func TestFlakyDeviceTransientSucceedsOnRetry(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 16),
		FlakyOptions{Seed: 42, TransientRate: 1})
	buf := bytes.Repeat([]byte{0xAB}, testBlockSize)
	err := d.WriteBlock(3, buf)
	if !IsTransient(err) || !errors.Is(err, ErrInjected) {
		t.Fatalf("first write err = %v", err)
	}
	if err := d.WriteBlock(3, buf); err != nil {
		t.Fatalf("retry must succeed: %v", err)
	}
	// A faulted pair stays recovered for good; only first touches draw.
	if err := d.WriteBlock(3, buf); err != nil {
		t.Fatalf("third write err = %v", err)
	}
	got := make([]byte, testBlockSize)
	if err := d.ReadBlock(3, got); !IsTransient(err) {
		t.Fatalf("first read err = %v", err)
	}
	if err := d.ReadBlock(3, got); err != nil {
		t.Fatalf("read retry: %v", err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("retried read returned wrong data")
	}
	if s := d.Stats(); s.Transient < 2 {
		t.Fatalf("transient stat = %+v", s)
	}
}

func TestFlakyDeviceRangePartialPrefix(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 16),
		FlakyOptions{Seed: 7})
	// Fault the 3rd write op (index 2): a 5-block range write lands
	// exactly 2 blocks and reports PartialError{Done: 2}.
	d.FailOpAt(OpWrite, 2, nil)
	src := bytes.Repeat([]byte{0x5C}, 5*testBlockSize)
	err := WriteBlocks(d, 4, src)
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Done != 2 {
		t.Fatalf("range write err = %v", err)
	}
	if !IsTransient(err) {
		t.Fatalf("one-shot default class not transient: %v", err)
	}
	// The prefix landed; the retry of the whole range succeeds.
	if err := WriteBlocks(d, 4, src); err != nil {
		t.Fatalf("range retry: %v", err)
	}
	got := make([]byte, 5*testBlockSize)
	if err := ReadBlocks(d, 4, got); err != nil {
		t.Fatalf("readback: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("range content wrong after retry")
	}
	if n := d.OpCount(OpWrite); n != 8 {
		t.Fatalf("write op count = %d, want 8 (3 checked on faulted attempt + 5 retry)", n)
	}
}

func TestFlakyDeviceStickyBadBlock(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 16), FlakyOptions{Seed: 1})
	d.AddBadBlock(5)
	buf := make([]byte, testBlockSize)
	for i := 0; i < 3; i++ {
		if err := d.WriteBlock(5, buf); !IsMedium(err) {
			t.Fatalf("bad-block write %d err = %v", i, err)
		}
		if err := d.ReadBlock(5, buf); !IsMedium(err) {
			t.Fatalf("bad-block read %d err = %v", i, err)
		}
	}
	// Neighbours unaffected; a range spanning the bad block lands the
	// prefix and fails medium.
	if err := d.WriteBlock(4, buf); err != nil {
		t.Fatalf("neighbour write: %v", err)
	}
	err := WriteBlocks(d, 4, make([]byte, 3*testBlockSize))
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Done != 1 || !IsMedium(err) {
		t.Fatalf("spanning write err = %v", err)
	}
	d.ClearBadBlocks()
	if err := d.WriteBlock(5, buf); err != nil {
		t.Fatalf("write after clear: %v", err)
	}
}

func TestFlakyDeviceSyncOneShot(t *testing.T) {
	d := NewFlakyDevice(NewMemDevice(testBlockSize, 8), FlakyOptions{Seed: 9})
	if err := d.Sync(); err != nil {
		t.Fatalf("sync 0: %v", err)
	}
	d.FailOpAt(OpSync, 1, ErrMedium)
	if err := d.Sync(); !IsMedium(err) {
		t.Fatalf("sync 1 err = %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("sync 2: %v", err)
	}
	if n := d.OpCount(OpSync); n != 3 {
		t.Fatalf("sync op count = %d", n)
	}
}

func TestFlakyDeviceDeterministicStream(t *testing.T) {
	run := func() []uint64 {
		d := NewFlakyDevice(NewMemDevice(testBlockSize, 64),
			FlakyOptions{Seed: 1234, TransientRate: 0.3})
		buf := make([]byte, testBlockSize)
		var failed []uint64
		for i := uint64(0); i < 64; i++ {
			if err := d.WriteBlock(i, buf); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("degenerate fault stream: %d faults", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}
