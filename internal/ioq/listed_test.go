package ioq

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mobiceal/internal/storage"
)

// The listed-slot suite: a helping waiter claims a slot from its queue's
// listed count under the queue lock, and the ready list holds each queue
// at most once. These tests pin that a worker that pulls a queue whose
// listed slots were all claimed dispatches nothing, that slot accounting
// unwinds to zero when the scheduler goes idle, and that the queue-depth
// and in-flight gauges derived from counters read what the gauges they
// replace read.

// slotState reads q's slot accounting under its lock.
func slotState(q *VolumeQueue) (slots, listed int, onList bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.slots, q.listed, q.onList
}

// waitIdle waits until the ready list is empty and every queue of s has
// no slot out and is off the list, and fails the test if that does not
// happen within five seconds.
func waitIdle(t *testing.T, s *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		idle := len(s.ready) == 0
		s.mu.Unlock()
		for _, q := range s.Queues() {
			slots, listed, onList := slotState(q)
			idle = idle && slots == 0 && listed == 0 && !onList
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			for _, q := range s.Queues() {
				slots, listed, onList := slotState(q)
				t.Errorf("queue: %d slots, %d listed, on list %v", slots, listed, onList)
			}
			t.Fatal("the scheduler did not go idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestListedClaimedSlotParksWorker: with the only worker plugged on queue
// A, a waiter on queue B claims B's one listed slot and runs its write,
// leaving B's entry on the ready list with nothing listed. Once the worker
// is free it pulls B, finds no slot, and goes back to sleep without a
// dispatch; every count returns to zero.
func TestListedClaimedSlotParksWorker(t *testing.T) {
	s, _, _, unplug := plugged(t, 1, nil)
	dev := &countingDevice{Device: storage.NewMemDevice(blockSize, 64)}
	b := s.Register(dev)
	waitWithin(t, b.SubmitWrite(3, make([]byte, blockSize)))
	if slots, listed, onList := slotState(b); slots != 0 || listed != 0 || !onList {
		t.Fatalf("after the helped write: %d slots, %d listed, on list %v; want 0, 0, true", slots, listed, onList)
	}
	before := s.MetricsSnapshot().Batches // the plug and the helped write

	// Going idle takes B off the list, which only the worker's pull does.
	unplug()
	waitIdle(t, s)
	if got := s.MetricsSnapshot().Batches; got != before {
		t.Fatalf("Batches %d after the worker pulled B, want %d", got, before)
	}
	dev.mu.Lock()
	calls := dev.writeCalls
	dev.mu.Unlock()
	if calls != 1 {
		t.Fatalf("queue B's device saw %d writes, want the helped one", calls)
	}
}

// TestListedUnwindsUnderLoad: many goroutines submitting, flushing and
// waiting on two queues leave every slot count at zero once they stop.
func TestListedUnwindsUnderLoad(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		s := NewScheduler(Options{Workers: workers})
		qs := []*VolumeQueue{
			s.Register(storage.NewMemDevice(blockSize, 256)),
			s.Register(storage.NewMemDevice(blockSize, 256)),
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				q := qs[g%2]
				buf := make([]byte, blockSize)
				var futs []*Future
				for i := 0; i < 60; i++ {
					f := q.SubmitWrite(uint64(g*60+i)%256, buf)
					switch {
					case i%10 == 9:
						f = q.Flush()
					case i%3 == 0:
						futs = append(futs, f) // waited later, or never helped
						continue
					}
					if err := f.Wait(); err != nil {
						t.Error(err)
						return
					}
				}
				for _, f := range futs {
					<-f.done
				}
			}(g)
		}
		wg.Wait()
		waitIdle(t, s)
		m := s.MetricsSnapshot()
		if m.QueueDepth != 0 || m.InFlight != 0 || m.Submitted != m.Completed {
			t.Fatalf("workers=%d: idle with depth %d, in flight %d, %d submitted, %d completed",
				workers, m.QueueDepth, m.InFlight, m.Submitted, m.Completed)
		}
		s.Close()
	}
}

// TestDerivedGauges: with both workers plugged at the device and three
// requests queued behind them, the derived gauges read 2 in flight and 3
// queued; at quiescence, and after a submission the closed scheduler
// refuses, both read 0.
func TestDerivedGauges(t *testing.T) {
	s, q, _, unplug := plugged(t, 2, nil)
	var futs []*Future
	for i := 0; i < 3; i++ {
		futs = append(futs, q.SubmitWrite(uint64(10+i), make([]byte, blockSize)))
	}
	if m := s.MetricsSnapshot(); m.InFlight != 2 || m.QueueDepth != 3 {
		t.Fatalf("plugged: in flight %d, depth %d; want 2 and 3", m.InFlight, m.QueueDepth)
	}
	unplug()
	if err := WaitAll(futs...); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, s)
	if m := s.MetricsSnapshot(); m.InFlight != 0 || m.QueueDepth != 0 || m.Batches != 5 {
		t.Fatalf("quiescent: in flight %d, depth %d, %d batches; want 0, 0, 5", m.InFlight, m.QueueDepth, m.Batches)
	}
	s.Close()
	if err := q.SubmitWrite(1, make([]byte, blockSize)).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if m := s.MetricsSnapshot(); m.InFlight != 0 || m.QueueDepth != 0 || m.Submitted != m.Completed {
		t.Fatalf("after a refused submission: in flight %d, depth %d, %d submitted, %d completed",
			m.InFlight, m.QueueDepth, m.Submitted, m.Completed)
	}
}
