package obs

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// FuzzReadJSONL feeds ReadJSONL, the parser behind `mobiceal trace -replay`
// and mobiceal.ReadTraceJSONL, arbitrary bytes: trace files are untrusted
// input. It must return an error, or events that WriteJSONL's encoding
// carries back through ReadJSONL unchanged, and allocate no more than a
// bound linear in the input.
func FuzzReadJSONL(f *testing.F) {
	r := NewFlightRecorder(64)
	r.SetEnabled(true)
	for i, st := range []Stage{StageQueued, StageStaged, StageDispatch, StageComplete,
		StageMapResolve, StageProvision, StageCommitJoin, StageCommitFlip, StageDevOp} {
		r.Record(r.NextID(), st, FlightOp(i%int(fopCount)), uint32(i), ErrClass(i%int(classCount)), uint64(i)<<40)
	}
	var seed bytes.Buffer
	if err := r.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("\n\n" + `{"id":1,"at_ns":-5,"stage":"C","err":"bogus"}` + "\n"))
	f.Add([]byte(`{"stage":"?"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		evs, err := ReadJSONL(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The scanner's buffer may grow to its 1 MiB line cap; beyond
		// that, memory follows the input.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(data)); grew > bound {
			t.Fatalf("%d input bytes allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeJSONL(&out, evs); err != nil {
			t.Fatalf("re-encoding parsed events: %v", err)
		}
		again, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("re-encoded events do not parse: %v\n%s", err, out.Bytes())
		}
		if !slices.Equal(evs, again) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", evs, again)
		}
	})
}
