package core

import (
	"strings"
	"testing"

	"mobiceal/internal/thinp"
)

// TestShardSummary pins the shard-imbalance fragment of the status
// one-liner: min..max free range, min/max balance ratio — and its
// absence when a snapshot carries no shard data.
func TestShardSummary(t *testing.T) {
	mk := func(shards ...thinp.ShardSnapshot) Telemetry {
		return Telemetry{Pool: thinp.PoolSnapshot{Shards: shards}}
	}
	cases := []struct {
		name string
		t    Telemetry
		want string
	}{
		{"empty", Telemetry{}, ""},
		{"balanced", mk(
			thinp.ShardSnapshot{Free: 100},
			thinp.ShardSnapshot{Free: 100},
		), "shards 2 free 100..100 bal 1.00"},
		{"imbalanced", mk(
			thinp.ShardSnapshot{Free: 40},
			thinp.ShardSnapshot{Free: 100},
		), "shards 2 free 40..100 bal 0.40"},
		{"drained", mk(
			thinp.ShardSnapshot{Free: 0},
			thinp.ShardSnapshot{Free: 0},
		), "shards 2 free 0..0 bal 1.00"},
	}
	for _, tc := range cases {
		if got := tc.t.ShardSummary(); got != tc.want {
			t.Errorf("%s: ShardSummary() = %q, want %q", tc.name, got, tc.want)
		}
	}
	// The one-liner embeds the fragment whenever shard data is present.
	tel := mk(thinp.ShardSnapshot{Free: 7})
	if !strings.Contains(tel.String(), "shards 1 free 7..7 bal 1.00") {
		t.Errorf("String() missing shard summary: %q", tel.String())
	}
	if strings.Contains((Telemetry{}).String(), "shards") {
		t.Errorf("String() shows shard summary without shard data")
	}
}
