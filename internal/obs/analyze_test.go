package obs

import (
	"testing"
	"time"
)

// synthetic trace: two writes, one read with a transient retry, one sync
// folding into commit round 3.
func syntheticTrace() []FlightEvent {
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	return []FlightEvent{
		// write 1: Q at 0, G at 10, D at 20, C at 120.
		{ReqID: 1, At: us(0), Stage: StageQueued, Op: FOpWrite, N: 8},
		{ReqID: 1, At: us(10), Stage: StageStaged, Op: FOpWrite, N: 8},
		{ReqID: 1, At: us(20), Stage: StageDispatch, Op: FOpWrite, N: 8, Aux: 1},
		{ReqID: 1, At: us(120), Stage: StageComplete, Op: FOpWrite, N: 8},
		// write 2: Q at 2, G at 10, D at 20, C at 121.
		{ReqID: 2, At: us(2), Stage: StageQueued, Op: FOpWrite, N: 8},
		{ReqID: 2, At: us(10), Stage: StageStaged, Op: FOpWrite, N: 8},
		{ReqID: 2, At: us(20), Stage: StageDispatch, Op: FOpWrite, N: 8, Aux: 1},
		{ReqID: 2, At: us(121), Stage: StageComplete, Op: FOpWrite, N: 8},
		// read: attempt 1 fails transient at 60, attempt 2 completes at 90.
		{ReqID: 3, At: us(5), Stage: StageQueued, Op: FOpRead, N: 4},
		{ReqID: 3, At: us(30), Stage: StageDispatch, Op: FOpRead, N: 4, Aux: 1},
		{ReqID: 3, At: us(60), Stage: StageComplete, Op: FOpRead, N: 4, Err: ClassTransient, Aux: 1},
		{ReqID: 3, At: us(70), Stage: StageDispatch, Op: FOpRead, N: 4, Aux: 2},
		{ReqID: 3, At: us(90), Stage: StageComplete, Op: FOpRead, N: 4},
		// sync joining commit round 3, flip folds 2 callers.
		{ReqID: 4, At: us(40), Stage: StageQueued, Op: FOpSync},
		{ReqID: 4, At: us(45), Stage: StageDispatch, Op: FOpSync, Aux: 1},
		{ReqID: 4, At: us(50), Stage: StageCommitJoin, Op: FOpSync, Aux: 3},
		{ReqID: 0, At: us(200), Stage: StageCommitFlip, Op: FOpSync, N: 2, Aux: 3},
		{ReqID: 4, At: us(205), Stage: StageComplete, Op: FOpSync},
	}
}

func TestAnalyzeLatencyAttribution(t *testing.T) {
	rep := Analyze(syntheticTrace())
	if rep.Requests != 4 || rep.Completed != 4 {
		t.Fatalf("requests=%d completed=%d, want 4/4", rep.Requests, rep.Completed)
	}

	byOp := map[string]OpLat{}
	for _, o := range rep.Ops {
		byOp[o.Op] = o
	}
	w := byOp["write"]
	if w.Q2C.Count != 2 {
		t.Fatalf("write Q2C count = %d, want 2", w.Q2C.Count)
	}
	// Write 1: Q2D = 20µs, D2C = 100µs, Q2C = 120µs.
	if w.Q2D.MinNS != 18*int64(time.Microsecond) { // write 2: 20-2
		t.Fatalf("write Q2D min = %v", time.Duration(w.Q2D.MinNS))
	}
	if w.Q2C.MaxNS != 120*int64(time.Microsecond) {
		t.Fatalf("write Q2C max = %v", time.Duration(w.Q2C.MaxNS))
	}
	// Read D2C must use the LAST dispatch (retry attempt): 90-70 = 20µs.
	r := byOp["read"]
	if r.D2C.MaxNS != 20*int64(time.Microsecond) {
		t.Fatalf("read D2C = %v, want 20µs (last attempt)", time.Duration(r.D2C.MaxNS))
	}
	if r.Q2C.MaxNS != 85*int64(time.Microsecond) {
		t.Fatalf("read Q2C = %v, want 85µs (spans both attempts)", time.Duration(r.Q2C.MaxNS))
	}

	if rep.Errors["transient"] != 1 {
		t.Fatalf("errors = %v, want one transient", rep.Errors)
	}
}

// TestAnalyzeMergeAndCommit pins commit-round attribution: the flip's
// folded count, the joins seen in-window and each joiner's door wait.
func TestAnalyzeMergeAndCommit(t *testing.T) {
	rep := Analyze(syntheticTrace())
	if rep.Commits.Rounds != 1 || rep.Commits.Folded != 2 {
		t.Fatalf("commits = %+v", rep.Commits)
	}
	cr := rep.Commits.PerRound[0]
	if cr.Round != 3 || cr.Joins != 1 {
		t.Fatalf("round = %+v", cr)
	}
	// Door-hold wait: flip at 200µs, join at 50µs.
	if cr.DoorWait.MaxNS != 150*int64(time.Microsecond) {
		t.Fatalf("door wait = %v, want 150µs", time.Duration(cr.DoorWait.MaxNS))
	}
}

func TestAnalyzeTimeline(t *testing.T) {
	rep := Analyze(syntheticTrace())
	// 4 Q events before any D: max queued depth is 3 (writes 1,2 + read
	// queue before their dispatches land — sync queues at 40 after).
	if rep.QueueMax < 2 {
		t.Fatalf("queue max = %d, want >= 2", rep.QueueMax)
	}
	if rep.FlightMax < 2 {
		t.Fatalf("in-flight max = %d, want >= 2", rep.FlightMax)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("no timeline points")
	}
	for i := 1; i < len(rep.Timeline); i++ {
		if rep.Timeline[i].AtNS < rep.Timeline[i-1].AtNS {
			t.Fatal("timeline not time-ordered")
		}
	}
	if rep.QueueMean <= 0 {
		t.Fatalf("queue mean = %v, want > 0", rep.QueueMean)
	}
}

func TestAnalyzeEmptyAndDist(t *testing.T) {
	rep := Analyze(nil)
	if rep.Events != 0 || rep.Requests != 0 || len(rep.Ops) != 0 {
		t.Fatalf("empty analyze = %+v", rep)
	}
	if d := distOf(nil); d.Count != 0 || d.String() != "n=0" {
		t.Fatalf("empty dist = %+v", d)
	}
	d := distOf([]int64{100})
	if d.MinNS != 100 || d.MaxNS != 100 || d.P99NS != 100 || d.MeanNS != 100 {
		t.Fatalf("singleton dist = %+v", d)
	}
}
