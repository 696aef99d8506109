package thinp

import (
	"strings"
	"testing"

	"mobiceal/internal/obs"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
)

// TestTraceDeniabilityTwinPools pins the flight recorder's deniability
// claim the same way TestTelemetryDeniabilityTwinPools pins the counter
// surface: a pool whose extra traffic is hidden-volume writes and a pool
// whose extra traffic is an equal-size dummy burst must produce
// byte-equivalent event streams modulo timestamps and request ids.
//
// Pool D writes H hidden blocks to thin 2 (policy armed, never firing);
// pool C replays the same public workload and lets the policy fire one
// H-block dummy burst into thin 2 instead. Every stage hook sits on a
// choke point both traffic kinds traverse — per fresh block the canonical
// [provision, map-resolve, devop] lifecycle — so the per-request
// signature multisets must be identical. If any stage were recorded on a
// path only one kind takes (or carried a block address or volume id that
// differs between them), the signatures would diverge here.
func TestTraceDeniabilityTwinPools(t *testing.T) {
	const (
		dataBlocks = 512
		pubBlocks  = 16
		hidBlocks  = 8
	)

	type twin struct {
		pool   *Pool
		flight *obs.FlightRecorder
	}
	build := func(policy DummyPolicy, seed uint64) twin {
		t.Helper()
		data := storage.NewStatsDevice(storage.NewMemDevice(blockSize, dataBlocks))
		meta := storage.NewMemDevice(blockSize, MetaBlocksNeeded(dataBlocks, blockSize))
		fr := obs.NewFlightRecorder(1 << 12)
		data.SetFlightRecorder(fr)
		p, err := CreatePool(data, meta, Options{
			Policy:   policy,
			Entropy:  prng.NewSeededEntropy(seed),
			DummySrc: prng.NewSource(seed + 1),
			Flight:   fr,
		})
		if err != nil {
			t.Fatalf("CreatePool: %v", err)
		}
		for id, virt := range map[int]uint64{1: 64, 2: 128} {
			if err := p.CreateThin(id, virt); err != nil {
				t.Fatalf("CreateThin(%d): %v", id, err)
			}
		}
		// Recording starts only now: pool creation differs between the twins
		// in irrelevant ways (the burst policy is not armed during format).
		fr.SetEnabled(true)
		return twin{pool: p, flight: fr}
	}
	writeBlocks := func(tw twin, thinID int, n int) {
		t.Helper()
		thin, err := tw.pool.Thin(thinID)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, blockSize)
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			if err := thin.WriteBlock(uint64(i), buf); err != nil {
				t.Fatalf("thin %d write %d: %v", thinID, i, err)
			}
		}
	}

	// Different entropy seeds on purpose: the equivalence must come from
	// where the stage hooks sit, not from bitwise-identical replays.
	d := build(quietPolicy{}, 31)
	c := build(&onceBurstPolicy{watch: 1, target: 2, count: hidBlocks}, 42)

	// Pool D: hidden writes ride between the public halves.
	writeBlocks(d, 1, pubBlocks/2)
	writeBlocks(d, 2, hidBlocks)
	writeBlocks(d, 1, pubBlocks)
	// Pool C: the burst fires on the first public provision.
	writeBlocks(c, 1, pubBlocks/2)
	writeBlocks(c, 1, pubBlocks)

	for _, tw := range []twin{d, c} {
		if err := tw.pool.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	sd := obs.Signatures(d.flight.Events())
	sc := obs.Signatures(c.flight.Events())
	if len(sd) == 0 {
		t.Fatal("no traced requests — recorder not wired through the pool")
	}
	// Sanity: the hidden/dummy block lifecycles must actually be present —
	// pubBlocks+hidBlocks fresh provisions means that many requests carry a
	// provision stage.
	var provisioned int
	for _, sig := range sd {
		if strings.Contains(sig, "provision") {
			provisioned++
		}
	}
	if provisioned != pubBlocks+hidBlocks {
		t.Fatalf("pool D traced %d provisioning requests, want %d",
			provisioned, pubBlocks+hidBlocks)
	}
	if len(sd) != len(sc) {
		t.Fatalf("request counts diverge: hidden run %d, dummy run %d\n D: %v\n C: %v",
			len(sd), len(sc), sd, sc)
	}
	for i := range sd {
		if sd[i] != sc[i] {
			t.Fatalf("trace signature %d diverges between hidden and dummy runs:\n D: %s\n C: %s",
				i, sd[i], sc[i])
		}
	}
}
