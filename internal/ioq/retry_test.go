package ioq

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mobiceal/internal/storage"
)

// TestRetryAbsorbsTransientFaults: a transient fault on every first touch
// of a block is invisible to callers — the scheduler retries and the
// request succeeds, with the recovery visible only in Stats.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	dev := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, 64),
		storage.FlakyOptions{Seed: 11, TransientRate: 1})
	s := NewScheduler(Options{Workers: 2})
	defer s.Close()
	q := s.Register(dev)

	src := bytes.Repeat([]byte{0x77}, 4*blockSize)
	if err := q.SubmitWrite(8, src).Wait(); err != nil {
		t.Fatalf("write with transient faults: %v", err)
	}
	dst := make([]byte, 4*blockSize)
	if err := q.SubmitRead(8, dst).Wait(); err != nil {
		t.Fatalf("read with transient faults: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("readback mismatch")
	}
	st := s.MetricsSnapshot()
	if st.Retries == 0 || st.Recovered == 0 {
		t.Fatalf("retry stats not accounted: %+v", st)
	}
	if st.Failures != 0 {
		t.Fatalf("no request should have failed: %+v", st)
	}
}

// TestRetryGivesUpOnPermanentFaults: medium (bad-block) and unclassified
// errors must not be retried.
func TestRetryGivesUpOnPermanentFaults(t *testing.T) {
	dev := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, 64),
		storage.FlakyOptions{Seed: 3})
	dev.AddBadBlock(5)
	s := NewScheduler(Options{Workers: 1})
	defer s.Close()
	q := s.Register(dev)

	err := q.SubmitWrite(5, make([]byte, blockSize)).Wait()
	if !storage.IsMedium(err) {
		t.Fatalf("bad-block write err = %v", err)
	}
	st := s.MetricsSnapshot()
	if st.Retries != 0 {
		t.Fatalf("medium error was retried: %+v", st)
	}
	if st.Failures != 1 {
		t.Fatalf("failure not accounted: %+v", st)
	}
}

// TestRetryDisabled: MaxAttempts < 0 turns retry off; the transient fault
// surfaces to the caller.
func TestRetryDisabled(t *testing.T) {
	dev := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, 64),
		storage.FlakyOptions{Seed: 11, TransientRate: 1})
	s := NewScheduler(Options{Workers: 1, Retry: RetryPolicy{MaxAttempts: -1}})
	defer s.Close()
	q := s.Register(dev)

	err := q.SubmitWrite(0, make([]byte, blockSize)).Wait()
	if !storage.IsTransient(err) {
		t.Fatalf("want surfaced transient fault, got %v", err)
	}
	if st := s.MetricsSnapshot(); st.Retries != 0 {
		t.Fatalf("retry fired while disabled: %+v", st)
	}
}

// TestDeadlineExpiresParkedRequest: a request whose deadline passes while
// it is parked behind a slow barrier completes with ErrDeadline without
// executing and without wedging the queue.
func TestDeadlineExpiresParkedRequest(t *testing.T) {
	inner := storage.NewMemDevice(blockSize, 64)
	slow := &slowSyncDevice{Device: inner, delay: 50 * time.Millisecond}
	s := NewScheduler(Options{Workers: 2})
	defer s.Close()
	q := s.Register(slow)

	// Prime: one write, then a Flush that stalls in Sync, then a write
	// with a deadline far shorter than the stall.
	if err := q.SubmitWrite(0, make([]byte, blockSize)).Wait(); err != nil {
		t.Fatalf("prime write: %v", err)
	}
	flush := q.Flush()
	doomed := q.SubmitWriteOpts(1, bytes.Repeat([]byte{0xEE}, blockSize),
		ReqOptions{Deadline: time.Now().Add(time.Millisecond)})
	if err := doomed.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("parked request err = %v, want ErrDeadline", err)
	}
	if err := flush.Wait(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// The expired write must not have reached the device.
	got := make([]byte, blockSize)
	if err := q.SubmitRead(1, got).Wait(); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got[0] == 0xEE {
		t.Fatal("expired request executed anyway")
	}
	// Queue still serves requests after the timeout.
	if err := q.SubmitWrite(2, make([]byte, blockSize)).Wait(); err != nil {
		t.Fatalf("post-timeout write: %v", err)
	}
	st := s.MetricsSnapshot()
	if st.Timeouts != 1 {
		t.Fatalf("timeout not accounted: %+v", st)
	}
}

// TestDeadlineBoundsRetry: with an aggressive transient fault and a
// deadline shorter than the full backoff schedule, the request reports the
// device fault instead of sleeping past its deadline.
func TestDeadlineBoundsRetry(t *testing.T) {
	dev := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, 8),
		storage.FlakyOptions{Seed: 5, TransientRate: 1})
	s := NewScheduler(Options{Workers: 1, Retry: RetryPolicy{
		MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond}})
	defer s.Close()
	q := s.Register(dev)

	err := q.SubmitWriteOpts(0, make([]byte, blockSize),
		ReqOptions{Deadline: time.Now().Add(5 * time.Millisecond)}).Wait()
	if err == nil {
		t.Fatal("want an error (deadline cut the retry schedule)")
	}
	if !storage.IsTransient(err) && !errors.Is(err, ErrDeadline) {
		t.Fatalf("unexpected error class: %v", err)
	}
}

// slowSyncDevice stalls Sync, optionally failing it, to hold a barrier
// open while tests race requests against it.
type slowSyncDevice struct {
	storage.Device
	delay   time.Duration
	syncErr error
}

func (d *slowSyncDevice) Sync() error {
	time.Sleep(d.delay)
	if d.syncErr != nil {
		return d.syncErr
	}
	return d.Device.Sync()
}

// TestBarrierSyncErrorPropagatesToParked: the satellite-1 regression. When
// a Flush barrier's device Sync fails, every request parked behind the
// barrier must complete with an ErrBarrier error wrapping the Sync
// failure — not execute as if durability had been established.
func TestBarrierSyncErrorPropagatesToParked(t *testing.T) {
	inner := storage.NewMemDevice(blockSize, 64)
	boom := errors.New("controller flush died")
	slow := &slowSyncDevice{Device: inner, delay: 30 * time.Millisecond, syncErr: boom}
	s := NewScheduler(Options{Workers: 2})
	defer s.Close()
	q := s.Register(slow)

	if err := q.SubmitWrite(0, make([]byte, blockSize)).Wait(); err != nil {
		t.Fatalf("prime write: %v", err)
	}
	flush := q.Flush()
	// These park behind the barrier while its Sync stalls-then-fails.
	var parked []*Future
	for i := uint64(1); i <= 4; i++ {
		parked = append(parked, q.SubmitWrite(i, bytes.Repeat([]byte{0xAA}, blockSize)))
	}
	if err := flush.Wait(); !errors.Is(err, boom) {
		t.Fatalf("flush err = %v, want wrapped %v", err, boom)
	}
	for i, f := range parked {
		err := f.Wait()
		if !errors.Is(err, ErrBarrier) {
			t.Fatalf("parked[%d] err = %v, want ErrBarrier", i, err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("parked[%d] err = %v, does not wrap the Sync failure", i, err)
		}
	}
	// The parked writes must not have reached the device.
	slow.syncErr = nil
	for i := uint64(1); i <= 4; i++ {
		got := make([]byte, blockSize)
		if err := q.SubmitRead(i, got).Wait(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] == 0xAA {
			t.Fatalf("parked write %d executed despite failed barrier", i)
		}
	}
	// The queue recovers: post-failure submissions run normally.
	if err := q.SubmitWrite(9, make([]byte, blockSize)).Wait(); err != nil {
		t.Fatalf("post-failure write: %v", err)
	}
	if err := q.Flush().Wait(); err != nil {
		t.Fatalf("post-failure flush: %v", err)
	}
	st := s.MetricsSnapshot()
	if st.BarrierFails != 1 {
		t.Fatalf("barrier failure not accounted: %+v", st)
	}
}

// TestQuiesceBarrierNeverPoisons: Quiesce touches no device state, so even
// on a device whose Sync fails, quiesce barriers complete clean and leave
// parked requests alone.
func TestQuiesceBarrierNeverPoisons(t *testing.T) {
	inner := storage.NewMemDevice(blockSize, 64)
	slow := &slowSyncDevice{Device: inner, syncErr: errors.New("dead flush")}
	s := NewScheduler(Options{Workers: 2})
	defer s.Close()
	q := s.Register(slow)

	qf := q.Quiesce()
	after := q.SubmitWrite(3, make([]byte, blockSize))
	if err := qf.Wait(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if err := after.Wait(); err != nil {
		t.Fatalf("write after quiesce: %v", err)
	}
}

// TestTransientSyncRetriedAtBarrier: a transient Sync fault is retried by
// the scheduler like any request, so a one-shot flush hiccup neither fails
// the Flush nor poisons parked requests.
func TestTransientSyncRetriedAtBarrier(t *testing.T) {
	dev := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, 64),
		storage.FlakyOptions{Seed: 2})
	dev.FailOpAt(storage.OpSync, 0, storage.ErrTransient)
	s := NewScheduler(Options{Workers: 2})
	defer s.Close()
	q := s.Register(dev)

	if err := q.SubmitWrite(0, make([]byte, blockSize)).Wait(); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := q.Flush().Wait(); err != nil {
		t.Fatalf("flush with transient sync fault: %v", err)
	}
	st := s.MetricsSnapshot()
	if st.Recovered == 0 || st.BarrierFails != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
