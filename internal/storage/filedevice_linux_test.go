//go:build linux

package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFileDeviceEINTRRetry injects EINTR into the vectored-transfer seam
// and checks the retry loop re-issues in place: the caller sees success,
// the interruptions only the counters.
func TestFileDeviceEINTRRetry(t *testing.T) {
	const bs = 512
	d := newTestFileDevice(t, bs, 16, FileOptions{})
	d.vio = &shimVIO{steps: []shimStep{
		{max: 0, err: syscall.EINTR},
		{max: 0, err: syscall.EINTR},
	}}
	want := make([]byte, 2*bs)
	rand.New(rand.NewSource(23)).Read(want)
	if err := WriteBlocks(d, 4, want); err != nil {
		t.Fatalf("write across EINTR: %v", err)
	}
	sc := d.Syscalls()
	if sc.EintrRetries != 2 || sc.PwritevCalls != 3 {
		t.Fatalf("eintr %d calls %d, want 2 / 3", sc.EintrRetries, sc.PwritevCalls)
	}

	// EINTR after partial progress: re-issue from the current position.
	d.vio = &shimVIO{steps: []shimStep{{max: bs, err: syscall.EINTR}}}
	if err := WriteBlocks(d, 8, want); err != nil {
		t.Fatalf("write across mid-transfer EINTR: %v", err)
	}
	got := make([]byte, 2*bs)
	if err := ReadBlocks(d, 8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("EINTR resume corrupted the payload")
	}
}

// TestFileDeviceIovMaxCapping: a vec wider than IOV_MAX goes down as a
// capped first syscall plus a continuation — the same short-transfer
// resume path a partial kernel count takes.
func TestFileDeviceIovMaxCapping(t *testing.T) {
	const (
		bs   = 512
		segs = iovMax + 76
	)
	d := newTestFileDevice(t, bs, segs, FileOptions{})
	want := make([]byte, segs*bs)
	rand.New(rand.NewSource(29)).Read(want)
	var vsegs [][]byte
	for i := 0; i < segs; i++ {
		vsegs = append(vsegs, want[i*bs:(i+1)*bs])
	}
	v := Vec(bs, vsegs...)
	if err := WriteBlocksVec(d, 0, v); err != nil {
		t.Fatalf("IOV_MAX-wide vec write: %v", err)
	}
	sc := d.Syscalls()
	if sc.PwritevCalls != 2 || sc.ShortTransfers != 1 {
		t.Fatalf("calls %d shorts %d, want 2 / 1", sc.PwritevCalls, sc.ShortTransfers)
	}
	got := make([]byte, segs*bs)
	if err := ReadBlocks(d, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("IOV_MAX-capped transfer corrupted the payload")
	}
}

// TestDirectOpenOnTmpfsRejected: tmpfs has no O_DIRECT; the open must fail
// with a clean ErrDirectUnsupported rather than a raw EINVAL.
func TestDirectOpenOnTmpfsRejected(t *testing.T) {
	if fi, err := os.Stat("/dev/shm"); err != nil || !fi.IsDir() {
		t.Skip("no /dev/shm here")
	}
	dir, err := os.MkdirTemp("/dev/shm", "mobiceal-direct-*")
	if err != nil {
		t.Skipf("cannot create in /dev/shm: %v", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "img")
	if _, err := CreateFileDevice(path, DirectAlign, 8); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFileDeviceWith(path, DirectAlign, FileOptions{Direct: true})
	if err == nil {
		t.Skip("this kernel's tmpfs accepts O_DIRECT; nothing to reject")
	}
	if !errors.Is(err, ErrDirectUnsupported) {
		t.Fatalf("tmpfs direct open: %v, want ErrDirectUnsupported", err)
	}
}
