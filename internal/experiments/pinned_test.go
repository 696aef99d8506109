package experiments

import (
	"testing"
	"time"
)

// TestVirtualTestbedPinned holds the virtual-testbed reproduction fixed to
// the last bit: every Fig. 4 cell, every Table I cell, every Table II
// duration and every row of the default dummy-rate ablation, compared with
// exact equality against the values the stack produced when they were
// recorded. The *Shape tests only check the paper's ordering claims and
// would let a 1 % drift through; a refactor of how the testbed is charged
// must leave every number here untouched.
func TestVirtualTestbedPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full storage stacks")
	}
	t.Run("Fig4", func(t *testing.T) {
		want := []Fig4Row{
			{"Android", 19942.01979461146, 22724.373927131877, 19942.032028067046, 22724.3898124075},
			{"A-T-P", 19177.69602488898, 18869.403046441166, 19177.25839343618, 18869.413999291955},
			{"A-T-H", 19177.69602488898, 18869.403046441166, 19177.25839343618, 18869.413999291955},
			{"MC-P", 14346.234987802085, 17243.33977053813, 15388.601976975124, 17243.348917009916},
			{"MC-H", 18296.623361508846, 17243.33977053813, 18296.6336595053, 17243.348917009916},
		}
		got, err := Fig4(Fig4Config{FileMB: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("row %d:\n got %#v\nwant %#v", i, got[i], want[i])
			}
		}
	})
	t.Run("TableI", func(t *testing.T) {
		want := []TableIRow{
			{"DEFY", "defy-nandsim", 1241.0075429989722, 31.30746191126357, 97.47725450277223},
			{"HIVE", "hive-ssd", 226.55005833097627, 3.256173700859591, 98.56271336902394},
			{"MobiCeal", "nexus4", 21.378286225397783, 14.009995105275474, 34.466238511526},
		}
		got, err := TableI(TableIConfig{FileMB: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("row %d:\n got %#v\nwant %#v", i, got[i], want[i])
			}
		}
	})
	t.Run("TableII", func(t *testing.T) {
		d := func(s string) time.Duration {
			v, err := time.ParseDuration(s)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		want := []TableIIRow{
			{"Android FDE", d("19m19.268230901s"), d("351.688292ms"), 0, 0, false},
			{"MobiPluto", d("37m16.690929064s"), d("1.408196292s"), d("1m4.331752475s"), d("1m4.408196292s"), true},
			{"MobiCeal", d("2m8.098976242s"), d("1.736596292s"), d("8.337300582s"), d("1m4.736596292s"), true},
		}
		got, err := TableII(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("row %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
	t.Run("AblationDummyRate", func(t *testing.T) {
		want := []DummyRateRow{
			{0.5, 50, 0.3123110151187905, 23.74384236453202, 14.328456942716437},
			{1, 50, 0.15421166306695464, 13.325867861142218, 15.925909230264416},
			{2, 50, 0.06609071274298056, 6.181818181818182, 16.988753903612164},
			{4, 50, 0.025485961123110152, 2.4779504409911803, 17.466986217028246},
		}
		got, err := AblationDummyRate(0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("row %d:\n got %#v\nwant %#v", i, got[i], want[i])
			}
		}
	})
}
