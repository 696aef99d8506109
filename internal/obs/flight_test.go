package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderNilAndDisabled(t *testing.T) {
	var nilR *FlightRecorder
	if nilR.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	nilR.SetEnabled(true) // must not panic
	nilR.Record(1, StageQueued, FOpWrite, 1, ClassNone, 0)
	nilR.Reset()
	if got := nilR.Events(); got != nil {
		t.Fatalf("nil recorder events = %v, want nil", got)
	}
	if id := nilR.NextID(); id != 0 {
		t.Fatalf("nil NextID = %d, want 0", id)
	}

	r := NewFlightRecorder(64)
	r.Record(1, StageQueued, FOpWrite, 1, ClassNone, 0) // disabled: dropped
	if got := len(r.Events()); got != 0 {
		t.Fatalf("disabled recorder kept %d events", got)
	}
}

func TestFlightRecorderRecordAndOrder(t *testing.T) {
	r := NewFlightRecorder(1024)
	r.SetEnabled(true)
	fid := r.NextID()
	r.Record(fid, StageQueued, FOpWrite, 8, ClassNone, 0)
	r.Record(fid, StageStaged, FOpWrite, 8, ClassNone, 0)
	r.Record(fid, StageDispatch, FOpWrite, 8, ClassNone, 1)
	r.Record(fid, StageComplete, FOpWrite, 8, ClassTransient, 1)
	r.Record(fid, StageDispatch, FOpWrite, 8, ClassNone, 2)
	r.Record(fid, StageComplete, FOpWrite, 8, ClassNone, 0)

	evs := r.Events()
	if len(evs) != 6 {
		t.Fatalf("events = %d, want 6", len(evs))
	}
	wantStages := []Stage{StageQueued, StageStaged, StageDispatch,
		StageComplete, StageDispatch, StageComplete}
	for i, ev := range evs {
		if ev.ReqID != fid {
			t.Fatalf("evs[%d].ReqID = %d, want %d", i, ev.ReqID, fid)
		}
		if ev.Stage != wantStages[i] {
			t.Fatalf("evs[%d].Stage = %v, want %v", i, ev.Stage, wantStages[i])
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatalf("events not time-ordered at %d", i)
		}
	}
	if evs[3].Err != ClassTransient || evs[3].Aux != 1 {
		t.Fatalf("retry C = %+v, want transient class, attempt 1", evs[3])
	}

	r.Reset()
	if got := len(r.Events()); got != 0 {
		t.Fatalf("after reset: %d events", got)
	}
	if !r.Enabled() {
		t.Fatal("reset must not disable recording")
	}
}

func TestFlightRecorderWrap(t *testing.T) {
	r := NewFlightRecorder(flightShards * 4) // 4 slots per shard
	r.SetEnabled(true)
	const n = 1000
	for i := 0; i < n; i++ {
		r.Record(r.NextID(), StageQueued, FOpRead, 1, ClassNone, 0)
	}
	evs := r.Events()
	if capacity := flightShards * 4; len(evs) == 0 || len(evs) > capacity {
		t.Fatalf("retained %d events, capacity %d", len(evs), capacity)
	}
}

// TestFlightRecorderConcurrent hammers Record from many goroutines while a
// reader snapshots continuously; the seqlock publication plus all-atomic
// slots must never yield a torn event. Runs in the -race CI matrix.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(512)
	r.SetEnabled(true)
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fid := r.NextID()
				r.Record(fid, StageQueued, FOpWrite, 4, ClassNone, 0)
				r.Record(fid, StageComplete, FOpWrite, 4, ClassNone, 0)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		for _, ev := range r.Events() {
			// A torn slot would show an impossible combination; every
			// field must be one we actually wrote.
			if ev.Stage != StageQueued && ev.Stage != StageComplete {
				t.Errorf("torn event stage: %+v", ev)
			}
			if ev.Op != FOpWrite || ev.N != 4 || ev.Err != ClassNone || ev.Aux != 0 {
				t.Errorf("torn event payload: %+v", ev)
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestFlightJSONLRoundTrip(t *testing.T) {
	r := NewFlightRecorder(64)
	r.SetEnabled(true)
	a, b := r.NextID(), r.NextID()
	r.Record(a, StageQueued, FOpWrite, 8, ClassNone, 0)
	r.Record(b, StageStaged, FOpWrite, 4, ClassNone, 0)
	r.Record(a, StageDispatch, FOpWrite, 12, ClassNone, 1)
	r.Record(a, StageComplete, FOpWrite, 12, ClassMedium, 0)
	r.Record(0, StageCommitFlip, FOpSync, 3, ClassNone, 7)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if !strings.Contains(buf.String(), `"stage":"G"`) ||
		!strings.Contains(buf.String(), `"err":"medium"`) ||
		!strings.Contains(buf.String(), `"stage":"commit-flip"`) {
		t.Fatalf("jsonl missing symbolic names:\n%s", buf.String())
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	want := r.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip lost events: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip [%d]: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestFlightReadJSONLBad(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"stage\":\"nope\",\"id\":1}\n")); err == nil {
		t.Fatal("unknown stage parsed without error")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage parsed without error")
	}
	evs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank lines: %v, %d events", err, len(evs))
	}
}

// BenchmarkFlightRecorderDisabled guards the advertised disabled cost —
// one nil check plus one atomic load, ~1 ns, 0 allocs. The bench-smoke CI
// job keeps it compiling; BENCH_PR9.json holds the priced pair.
func BenchmarkFlightRecorderDisabled(b *testing.B) {
	r := NewFlightRecorder(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(uint64(i), StageQueued, FOpWrite, 8, ClassNone, 0)
	}
}

// BenchmarkFlightRecorderNil is the cost at call sites whose recorder was
// never wired (nil receiver).
func BenchmarkFlightRecorderNil(b *testing.B) {
	var r *FlightRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(uint64(i), StageQueued, FOpWrite, 8, ClassNone, 0)
	}
}

// BenchmarkFlightRecorderRecord is the enabled cost: one atomic Add plus
// six atomic stores, lock-free, 0 allocs.
func BenchmarkFlightRecorderRecord(b *testing.B) {
	r := NewFlightRecorder(1 << 12)
	r.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(uint64(i)+1, StageQueued, FOpWrite, 8, ClassNone, 0)
	}
}

func BenchmarkFlightRecorderRecordParallel(b *testing.B) {
	r := NewFlightRecorder(1 << 12)
	r.SetEnabled(true)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		fid := r.NextID()
		for pb.Next() {
			r.Record(fid, StageDevOp, FOpWrite, 8, ClassNone, 0)
		}
	})
}
