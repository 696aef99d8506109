package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}

	var g Gauge
	g.Inc()
	g.Add(5)
	g.Dec()
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.Set(-3)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge after set = %d, want -3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1 << 37, HistBuckets - 1},
		{1 << 40, HistBuckets - 1}, {1<<62 + 7, HistBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.ns); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations at 1µs, 10 slow at 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := int64(90)*int64(time.Microsecond) + int64(10)*int64(time.Millisecond)
	if s.SumNS != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNS, wantSum)
	}
	// p50 must land in the fast bucket, p99 in the slow bucket. The
	// estimate is the bucket's upper edge, so fast ≤ 2µs-ish, slow ≥ 1ms.
	if p50 := s.Quantile(0.50); p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want within fast bucket", p50)
	}
	if p99 := s.Quantile(0.99); p99 < time.Millisecond {
		t.Fatalf("p99 = %v, want within slow bucket", p99)
	}
	// Quantile upper bound property: at least quantile-fraction of
	// observations are <= the returned edge.
	if q1 := s.Quantile(1); q1 < time.Millisecond {
		t.Fatalf("p100 = %v, want >= 1ms", q1)
	}
	if got := s.Mean(); got != time.Duration(wantSum/100) {
		t.Fatalf("mean = %v, want %v", got, time.Duration(wantSum/100))
	}

	h.Reset()
	s = h.Snapshot()
	if s.Count != 0 || s.SumNS != 0 {
		t.Fatalf("after reset: count=%d sum=%d, want zeros", s.Count, s.SumNS)
	}
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.String() != "n=0" {
		t.Fatalf("empty snapshot rendering wrong: %q", s.String())
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Microsecond)
	got := h.Snapshot().String()
	if got == "" || got == "n=0" {
		t.Fatalf("String() = %q, want populated summary", got)
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	if got := l.Snapshot(); len(got) != 0 {
		t.Fatalf("empty log snapshot len = %d", len(got))
	}
	for i := 1; i <= 6; i++ {
		l.Append("k", fmt.Sprintf("e%d", i))
	}
	if l.Seq() != 6 {
		t.Fatalf("seq = %d, want 6", l.Seq())
	}
	got := l.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	// Oldest-first: e3..e6 with sequence numbers 3..6.
	for i, e := range got {
		wantSeq := uint64(i + 3)
		wantDetail := fmt.Sprintf("e%d", i+3)
		if e.Seq != wantSeq || e.Detail != wantDetail || e.Kind != "k" {
			t.Fatalf("snapshot[%d] = %+v, want seq=%d detail=%q", i, e, wantSeq, wantDetail)
		}
	}
}

func TestEventLogDefaultCapacity(t *testing.T) {
	l := NewEventLog(0)
	for i := 0; i < DefaultEventLogSize+10; i++ {
		l.Append("k", "d")
	}
	if got := len(l.Snapshot()); got != DefaultEventLogSize {
		t.Fatalf("retained = %d, want %d", got, DefaultEventLogSize)
	}
}

// TestQuantileEdges pins the edge contract of HistSnapshot.Quantile:
// empty snapshots, q at and beyond the [0,1] boundaries, single-bucket
// populations, and the ceil-rank behaviour that keeps q=1 on the upper
// edge of the highest non-empty bucket.
func TestQuantileEdges(t *testing.T) {
	var empty HistSnapshot
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	var h Histogram
	h.Observe(3 * time.Nanosecond) // single observation, bucket 1 ([2,4))
	single := h.Snapshot()
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{-0.5, 0},
		{0, 0},
		{0.0001, 4}, // ceil-rank: any positive q maps to the only sample
		{0.5, 4},
		{1, 4},
		{1.5, 4}, // clamped to 1
	}
	for _, tc := range cases {
		if got := single.Quantile(tc.q); got != tc.want {
			t.Errorf("single.Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	// 99 fast + 1 slow: a floor rank computes rank 99 at q=0.99 and a
	// ceil rank computes 99 too, but at q=1 the rank must be 100 — the
	// slow bucket — and never fall back to the fast bucket.
	var h2 Histogram
	for i := 0; i < 99; i++ {
		h2.Observe(time.Microsecond)
	}
	h2.Observe(time.Millisecond)
	s := h2.Snapshot()
	if got := s.Quantile(1); got < time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want slow-bucket edge >= 1ms", got)
	}
	if got := s.Quantile(0.5); got > 2*time.Microsecond {
		t.Fatalf("Quantile(0.5) = %v, want fast-bucket edge", got)
	}
	// Ceil rank: q=0.995 of 100 samples is rank 100, the slow sample.
	if got := s.Quantile(0.995); got < time.Millisecond {
		t.Fatalf("Quantile(0.995) = %v, want slow-bucket edge (ceil rank)", got)
	}
}

// TestEventLogConcurrentSnapshot hammers Append against Snapshot from
// many goroutines. The mutex makes torn reads impossible; the assertions
// pin the invariants a reader relies on — snapshots are internally
// consistent (contiguous ascending seqs) — and the -race run (CI matrix
// at GOMAXPROCS 1 and 4) verifies the synchronization itself.
func TestEventLogConcurrentSnapshot(t *testing.T) {
	l := NewEventLog(16)
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append("k", "d")
			}
		}()
	}
	var snaps int
	for {
		got := l.Snapshot()
		for i := 1; i < len(got); i++ {
			if got[i].Seq != got[i-1].Seq+1 {
				t.Fatalf("snapshot not contiguous: seq %d follows %d",
					got[i].Seq, got[i-1].Seq)
			}
		}
		snaps++
		if l.Seq() == writers*perWriter {
			break
		}
	}
	wg.Wait()
	if l.Seq() != writers*perWriter {
		t.Fatalf("seq = %d, want %d", l.Seq(), writers*perWriter)
	}
	if snaps == 0 {
		t.Fatal("no snapshots taken")
	}
}

// TestConcurrentPrimitives hammers every primitive from multiple
// goroutines; correctness of the totals plus a clean -race run is the
// point (the race matrix runs this at GOMAXPROCS 1 and 4).
func TestConcurrentPrimitives(t *testing.T) {
	const workers = 8
	const perWorker = 2000

	var c Counter
	var g Gauge
	var h Histogram
	l := NewEventLog(32)
	fr := NewFlightRecorder(256)
	fr.SetEnabled(true)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.ObserveNS(int64(i%4096 + 1))
				if i%100 == 0 {
					l.Append("k", "d")
					fr.Record(fr.NextID(), StageQueued, FOpWrite, 1, ClassNone, 0)
				}
				if i%500 == 0 {
					_ = h.Snapshot()
					_ = l.Snapshot()
					_ = fr.Events()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketSum uint64
	for _, b := range s.Buckets {
		bucketSum += b
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if got := l.Seq(); got != workers*(perWorker/100) {
		t.Fatalf("event seq = %d, want %d", got, workers*(perWorker/100))
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i&0xffff) + 1)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(time.Microsecond)
		}
	})
}

// TestHistogramCountIsBucketSum: the count is derived from the buckets, so
// a snapshot's Count equals the sum of its own buckets, also while
// observers race the snapshot.
func TestHistogramCountIsBucketSum(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{-5, 0, 1, 2, 3, 1000, 1 << 40, math.MaxInt64} {
		h.ObserveNS(ns)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
					h.ObserveNS(i << g)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var sum uint64
		for _, c := range s.Buckets {
			sum += c
		}
		if s.Count != sum {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot count %d, bucket sum %d", s.Count, sum)
		}
	}
	close(stop)
	wg.Wait()
	if s := h.Snapshot(); s.Count != h.Count() {
		t.Fatalf("quiescent: snapshot count %d, Count() %d", s.Count, h.Count())
	}
}
