package ioq

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
)

// The helper suite: Future.Wait dispatches with a slot its queue already
// has on the ready list. These tests pin that a waiter makes progress
// when every worker is busy elsewhere, that helping keeps the barrier rule
// and the per-queue bound of Workers requests at the device, and that a
// helper-run request leaves the same flight record as a worker-run one.

// waitWithin waits f in the calling goroutine's stead and fails the test
// unless it completes within five seconds.
func waitWithin(t *testing.T, f *Future) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not complete in time")
	}
}

// TestHelperBusyWorkers: with every worker parked at the device on queue
// A, a request of queue B completes as soon as its waiter waits — the
// waiter dispatches it with B's unpulled ready-list entry.
func TestHelperBusyWorkers(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s, _, dev, unplug := plugged(t, workers, nil)
		b := s.Register(storage.NewMemDevice(blockSize, 64))
		buf := make([]byte, blockSize)
		waitWithin(t, b.SubmitWrite(3, buf))
		waitWithin(t, b.SubmitRead(3, buf))
		// The workers never left queue A's plugs.
		assertNotEntered(t, dev)
		if m := s.MetricsSnapshot(); m.InFlight != int64(workers) {
			t.Fatalf("workers=%d: %d requests in flight, want the %d plugs", workers, m.InFlight, workers)
		}
		unplug()
	}
}

// TestHelperKeepsBarrier: W1 (held at the device), Flush, W2 on one
// queue, with both of the queue's slots unpulled on the ready list
// (every worker is parked on another queue). Waiting on W2 dispatches
// the head for W1 first; W2 must not reach the device before the
// Flush's Sync has run.
func TestHelperKeepsBarrier(t *testing.T) {
	s, _, plugDev, unplug := plugged(t, 2, nil)
	defer unplug()
	order := &countingDevice{Device: storage.NewMemDevice(blockSize, 64)}
	dev := newHoldDevice(order)
	t.Cleanup(dev.releaseAll)
	q := s.Register(dev)

	release := dev.hold(1)
	w1 := q.SubmitWrite(1, make([]byte, blockSize))
	flush := q.Flush()
	w2 := q.SubmitWrite(2, make([]byte, blockSize))

	w2Done := make(chan error, 1)
	go func() { w2Done <- w2.Wait() }()
	if got := waitEntered(t, dev); got != 1 {
		t.Fatalf("entered %d, want W1 (1)", got)
	}
	select {
	case err := <-w2Done:
		t.Fatalf("W2 completed (%v) with W1 still at the device", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := dev.syncs.Load(); got != 0 {
		t.Fatalf("%d syncs with W1 still at the device", got)
	}
	release()
	if err := <-w2Done; err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(w1, flush); err != nil {
		t.Fatal(err)
	}
	order.mu.Lock()
	got := order.log
	order.mu.Unlock()
	if want := []string{"write", "sync", "write"}; !slices.Equal(got, want) {
		t.Fatalf("device order %v, want W1, the Flush's sync, W2: %v", got, want)
	}
	assertNotEntered(t, plugDev)
}

// peakDevice tracks the most requests at the device at once; every
// request stays there a little while so that overlaps show.
type peakDevice struct {
	storage.Device
	cur, peak atomic.Int64
}

func (d *peakDevice) Do(reqs []storage.Req) error {
	n := d.cur.Add(1)
	for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
	}
	time.Sleep(20 * time.Microsecond)
	err := storage.Do(d.Device, reqs)
	d.cur.Add(-1)
	return err
}

// TestHelperWorkerBound: many goroutines submitting and waiting on one
// queue never put more than Workers of its requests at the device at
// once, helpers included.
func TestHelperWorkerBound(t *testing.T) {
	const (
		waiters = 16
		each    = 50
	)
	for _, workers := range []int{1, 2, 3} {
		dev := &peakDevice{Device: storage.NewMemDevice(blockSize, 256)}
		s := NewScheduler(Options{Workers: workers})
		q := s.Register(dev)
		var wg sync.WaitGroup
		for g := 0; g < waiters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, blockSize)
				for i := 0; i < each; i++ {
					f := q.SubmitWrite(uint64(g*each+i)%256, buf)
					if i%10 == 9 {
						f = q.Flush()
					}
					if err := f.Wait(); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		s.Close()
		if p := dev.peak.Load(); p > int64(workers) {
			t.Fatalf("workers=%d: %d requests of one queue at the device at once", workers, p)
		}
	}
}

// TestHelperFlightOrder: a request run by its waiter, while the only
// worker is parked on another queue, records Q, G, D, C in that order,
// exactly as a worker-run request does.
func TestHelperFlightOrder(t *testing.T) {
	fr := obs.NewFlightRecorder(1 << 10)
	fr.SetEnabled(true)
	s := NewScheduler(Options{Workers: 1, Flight: fr})
	held := newHoldDevice(storage.NewMemDevice(blockSize, 2048))
	t.Cleanup(func() {
		held.releaseAll()
		s.Close()
	})
	a := s.Register(held)
	unplug := plug(t, a, held, 1)
	defer unplug()
	b := s.Register(storage.NewMemDevice(blockSize, 64))
	if err := b.SubmitWrite(5, make([]byte, blockSize)).Wait(); err != nil {
		t.Fatal(err)
	}

	var helped []obs.FlightEvent
	for _, evs := range eventsByReq(fr.Events()) {
		if len(evs) == 4 { // the plug write is still at the device: Q, G, D
			helped = evs
		}
	}
	want := []obs.Stage{obs.StageQueued, obs.StageStaged, obs.StageDispatch, obs.StageComplete}
	if len(helped) != len(want) {
		t.Fatalf("no complete lifecycle among %v", eventsByReq(fr.Events()))
	}
	for i, st := range want {
		if helped[i].Stage != st {
			t.Fatalf("helper-run request recorded %v, want stages %v", helped, want)
		}
	}
	if helped[3].Aux != 0 || helped[3].Err != obs.ClassNone {
		t.Fatalf("terminal completion %+v, want aux 0 and no error", helped[3])
	}
}

// TestHelperCloseWaits: Close returns only after a request a waiter is
// running has completed — the device stack below may be torn down the
// moment Close returns.
func TestHelperCloseWaits(t *testing.T) {
	s, _, _, unplug := plugged(t, 1, nil)
	dev := newHoldDevice(storage.NewMemDevice(blockSize, 64))
	t.Cleanup(dev.releaseAll)
	q := s.Register(dev)
	release := dev.hold(7)
	f := q.SubmitWrite(7, make([]byte, blockSize))
	go f.Wait()
	if got := waitEntered(t, dev); got != 7 {
		t.Fatalf("entered %d, want 7", got)
	}
	unplug() // the worker is free; only the helper's write is outstanding
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a helper's write at the device")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the write completed")
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
}
