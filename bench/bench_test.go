package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"mobiceal"
	"mobiceal/internal/core"
	"mobiceal/internal/storage"
)

func shortOptions(t *testing.T, w *workload) options {
	return options{w: w, seed: 7, seconds: 0.5, trace: 2, short: true, dir: t.TempDir()}
}

// runShort runs w at smoke-test size; the direct pair skips only where the
// file system refuses O_DIRECT.
func runShort(t *testing.T, o options) *result {
	t.Helper()
	res, err := runWorkload(o)
	if o.w.direct && errors.Is(err, mobiceal.ErrDirectUnsupported) {
		t.Skipf("direct I/O unavailable under %s: %v", o.dir, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryWorkload runs each workload twice with one seed and checks that
// every ledger metric is reported with its unit, that outputs verify, that
// the four self times sum to the serial op, and that the traced counts
// repeat exactly.
func TestEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res := runShort(t, shortOptions(t, w))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", d.name, v, ok, d.unit)
					}
				}
			}
			if len(res.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics reported, ledger has %d", len(res.Metrics), len(endToEnd)+len(perLayer))
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.name, res.Metrics[d.name].Value)
				}
			}
			m := func(name string) float64 { return res.Metrics[name].Value }
			sum := m("storage.busy_us") + m("thinp.self_us") + m("dm.self_us") + m("ioq.self_us")
			if serial := m("core.serial_us"); math.Abs(sum-serial) > 0.02*serial {
				t.Errorf("self times sum to %.3f us, core.serial_us is %.3f", sum, serial)
			}

			again := runShort(t, shortOptions(t, w))
			for _, name := range []string{"storage.calls_per_op", "storage.bytes_per_call", "storage.syncs_per_op", "thinp.extents_per_op"} {
				if a, b := res.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of seed %d: %v then %v", name, res.Seed, a, b)
				}
			}
		})
	}
}

// flipDevice corrupts one byte of every data-region block read through it.
// It offers only the per-block contract, so every read above degrades to
// ReadBlock and passes here.
type flipDevice struct {
	storage.Device
	lay core.LayoutInfo
}

func (d flipDevice) ReadBlock(idx uint64, dst []byte) error {
	err := d.Device.ReadBlock(idx, dst)
	if idx >= d.lay.MetaBlocks && idx < d.lay.MetaBlocks+d.lay.DataBlocks {
		dst[0] ^= 0x01
	}
	return err
}

// TestCorruptionFailsVerification plants a one-byte corruption under the
// stack and requires the run to report itself incorrect.
func TestCorruptionFailsVerification(t *testing.T) {
	w, err := findWorkload("mem_read_4k")
	if err != nil {
		t.Fatal(err)
	}
	o := shortOptions(t, w)
	o.trace = 0
	o.wrap = func(dev storage.Device) storage.Device {
		lay, err := core.Layout(dev)
		if err != nil {
			t.Fatal(err)
		}
		return flipDevice{dev, lay}
	}
	res := runShort(t, o)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted reads verified: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json at the repo root in
// step with the tables the runner fills.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the runner %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the ledger has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the ledger %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
