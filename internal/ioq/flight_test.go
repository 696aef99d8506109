package ioq

import (
	"testing"

	"mobiceal/internal/obs"
	"mobiceal/internal/storage"
)

// eventsByReq groups a flight snapshot by request id, keeping the
// recorder's per-request causal order.
func eventsByReq(evs []obs.FlightEvent) map[uint64][]obs.FlightEvent {
	m := map[uint64][]obs.FlightEvent{}
	for _, ev := range evs {
		if ev.ReqID != 0 {
			m[ev.ReqID] = append(m[ev.ReqID], ev)
		}
	}
	return m
}

// TestFlightTracingUnderFaults pins the retry path's event contract: every
// device attempt records its own D (Aux = attempt number); every failed
// attempt that will be retried closes with an intermediate C carrying the
// fault's class and the attempt number; the request ends with exactly one
// terminal C (Aux 0). The per-request D surplus must reconcile with the
// scheduler's Retries counter.
func TestFlightTracingUnderFaults(t *testing.T) {
	dev := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, 64),
		storage.FlakyOptions{Seed: 11, TransientRate: 1})
	fr := obs.NewFlightRecorder(1 << 12)
	fr.SetEnabled(true)
	s := NewScheduler(Options{Workers: 1, Flight: fr})
	defer s.Close()
	q := s.Register(dev)

	// Non-adjacent single-block writes: same batch, but no merge runs, so
	// every request takes the retrying execOne path. TransientRate 1 makes
	// the first touch of each block fail and the retry succeed.
	const writes = 4
	futs := make([]*Future, writes)
	for i := 0; i < writes; i++ {
		futs[i] = q.SubmitWrite(uint64(2*i), make([]byte, blockSize))
	}
	if err := WaitAll(futs...); err != nil {
		t.Fatalf("writes with transient faults: %v", err)
	}

	st := s.MetricsSnapshot()
	if st.Retries == 0 || st.Recovered == 0 || st.Failures != 0 {
		t.Fatalf("unexpected fault stats: %+v", st)
	}

	byReq := eventsByReq(fr.Events())
	if len(byReq) != writes {
		t.Fatalf("traced %d requests, want %d", len(byReq), writes)
	}
	var dispatches, requests int
	for fid, evs := range byReq {
		var d, termC, interC int
		var lastDAux uint64
		for _, ev := range evs {
			switch ev.Stage {
			case obs.StageMerged:
				t.Fatalf("req %d: unexpected merge event (non-adjacent writes)", fid)
			case obs.StageDispatch:
				d++
				if ev.Aux != uint64(d) {
					t.Fatalf("req %d: dispatch %d has attempt aux %d", fid, d, ev.Aux)
				}
				lastDAux = ev.Aux
			case obs.StageComplete:
				if ev.Aux == 0 {
					termC++
					if ev.Err != obs.ClassNone {
						t.Fatalf("req %d: recovered request ends with class %v", fid, ev.Err)
					}
				} else {
					interC++
					if ev.Err != obs.ClassTransient {
						t.Fatalf("req %d: intermediate C class = %v, want transient", fid, ev.Err)
					}
					if ev.Aux != lastDAux {
						t.Fatalf("req %d: intermediate C aux %d does not close attempt %d",
							fid, ev.Aux, lastDAux)
					}
				}
			}
		}
		if termC != 1 {
			t.Fatalf("req %d: %d terminal completions, want 1", fid, termC)
		}
		if d < 2 || interC != d-1 {
			t.Fatalf("req %d: %d dispatches with %d intermediate completions", fid, d, interC)
		}
		dispatches += d
		requests++
	}
	// One D per attempt: total dispatches = requests + retries.
	if got, want := dispatches-requests, int(st.Retries); got != want {
		t.Fatalf("dispatch surplus %d does not reconcile with Retries %d", got, want)
	}
}

// TestFlightTracingMediumFault: a permanent (medium) fault is never
// retried; its single terminal C carries the medium error class.
func TestFlightTracingMediumFault(t *testing.T) {
	dev := storage.NewFlakyDevice(storage.NewMemDevice(blockSize, 64),
		storage.FlakyOptions{Seed: 3})
	dev.AddBadBlock(9)
	fr := obs.NewFlightRecorder(1 << 10)
	fr.SetEnabled(true)
	s := NewScheduler(Options{Workers: 1, Flight: fr})
	defer s.Close()
	q := s.Register(dev)

	if err := q.SubmitWrite(9, make([]byte, blockSize)).Wait(); !storage.IsMedium(err) {
		t.Fatalf("bad-block write err = %v", err)
	}
	byReq := eventsByReq(fr.Events())
	if len(byReq) != 1 {
		t.Fatalf("traced %d requests, want 1", len(byReq))
	}
	for fid, evs := range byReq {
		var d, c int
		for _, ev := range evs {
			switch ev.Stage {
			case obs.StageDispatch:
				d++
			case obs.StageComplete:
				c++
				if ev.Aux != 0 {
					t.Fatalf("req %d: medium fault recorded a retry completion", fid)
				}
				if ev.Err != obs.ClassMedium {
					t.Fatalf("req %d: terminal class = %v, want medium", fid, ev.Err)
				}
			}
		}
		if d != 1 || c != 1 {
			t.Fatalf("req %d: %d dispatches / %d completions, want 1/1", fid, d, c)
		}
	}
	if st := s.MetricsSnapshot(); st.Retries != 0 {
		t.Fatalf("medium fault was retried: %+v", st)
	}
}
