package mobiceal_test

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mobiceal"
)

// TestTelemetryAdversaryCleanVerdict arms the multi-snapshot adversary
// with everything this PR adds: alongside the before/after device captures
// it now also reads telemetry snapshots scraped throughout a mixed
// public+hidden workload — exactly what an attacker probing a live
// `-debug-addr` endpoint would collect. The verdict must not change:
// every changed block stays accountable and random-looking, and nothing in
// the scraped telemetry names a volume, a thin id, or a dummy/real split.
func TestTelemetryAdversaryCleanVerdict(t *testing.T) {
	const (
		blockSize = 4096
		workers   = 4
		rounds    = 40
		region    = 64
	)
	dev := mobiceal.NewMemDevice(blockSize, 8192)
	sys, err := mobiceal.Setup(dev, testConfig(99), "decoy-pass", []string{"hidden-pass"})
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Snapshot()

	pub, err := sys.OpenPublic("decoy-pass")
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatal(err)
	}

	// The adversary's scraper: concurrent Telemetry() snapshots while the
	// workload runs (this is also the race test for the snapshot paths).
	var stop atomic.Bool
	scraped := make(chan []mobiceal.Telemetry, 1)
	go func() {
		var snaps []mobiceal.Telemetry
		for !stop.Load() {
			snaps = append(snaps, sys.Telemetry())
		}
		snaps = append(snaps, sys.Telemetry())
		scraped <- snaps
	}()

	var wg sync.WaitGroup
	for _, vol := range []*mobiceal.Volume{pub, hid} {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(vol *mobiceal.Volume, w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(vol.ID())<<8 | int64(w)))
				base := uint64(w * region)
				buf := make([]byte, 4*blockSize)
				var futures []*mobiceal.Future
				for r := 0; r < rounds; r++ {
					off := base + uint64(rng.Intn(region-4))
					switch rng.Intn(5) {
					case 0, 1, 2:
						rng.Read(buf)
						if err := vol.SubmitWrite(off, buf).Wait(); err != nil {
							t.Error(err)
							return
						}
					case 3:
						dst := make([]byte, 4*blockSize)
						futures = append(futures, vol.SubmitRead(off, dst))
					case 4:
						futures = append(futures, vol.Flush())
					}
				}
				if err := mobiceal.WaitAll(futures...); err != nil {
					t.Error(err)
					return
				}
				if err := vol.Flush().Wait(); err != nil {
					t.Error(err)
				}
			}(vol, w)
		}
	}
	wg.Wait()
	stop.Store(true)
	snaps := <-scraped
	if t.Failed() {
		return
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Device-level verdict, unchanged from the telemetry-free test.
	after := dev.Snapshot()
	report, err := mobiceal.AnalyzeSnapshots(dev, before, after)
	if err != nil {
		t.Fatal(err)
	}
	if report.Changed == 0 {
		t.Fatal("workload changed nothing — test is vacuous")
	}
	if len(report.Unaccountable) > 0 {
		t.Fatalf("%d unaccountable changed blocks", len(report.Unaccountable))
	}
	if report.NonRandomChanged > 0 {
		t.Fatalf("%d non-random changed blocks", report.NonRandomChanged)
	}

	// Telemetry-level verdict: the scraped stream must be volume-blind.
	// Keys are the attack surface — a per-volume counter would have to name
	// its subject somewhere in the wire format.
	if len(snaps) == 0 {
		t.Fatal("scraper collected no telemetry")
	}
	last := snaps[len(snaps)-1]
	if last.Pool.Provisions == 0 || last.IO.Completed == 0 {
		t.Fatalf("telemetry not live: %+v", last)
	}
	forbidden := []string{"volume", "thin_id", "hidden", "dummy", "decoy", "password", "key"}
	for i, snap := range snaps {
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		lower := strings.ToLower(string(raw))
		for _, word := range forbidden {
			if idx := strings.Index(lower, `"`+word); idx >= 0 {
				t.Fatalf("snapshot %d leaks %q near %q", i, word,
					lower[idx:min(idx+60, len(lower))])
			}
		}
	}
	// Monotone sanity across the scrape: counters never go backwards.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Pool.Provisions < snaps[i-1].Pool.Provisions {
			t.Fatalf("provisions went backwards at snapshot %d", i)
		}
		if snaps[i].IO.Submitted < snaps[i-1].IO.Submitted {
			t.Fatalf("submitted went backwards at snapshot %d", i)
		}
		if snaps[i].Pool.CommitCalls < snaps[i].Pool.CommitFlips {
			t.Fatalf("snapshot %d: flips %d exceed calls %d", i,
				snaps[i].Pool.CommitFlips, snaps[i].Pool.CommitCalls)
		}
	}
}

// BenchmarkTelemetrySnapshot prices one full Telemetry() scrape on an idle
// system — the cost a `-debug-addr` poller pays per request. Snapshots copy
// three histograms and the event ring, so they allocate; what matters is
// that the cost is bounded and paid by the scraper, never by the I/O paths
// (those are covered by the 0-alloc overhead guards in obs and storage).
func BenchmarkTelemetrySnapshot(b *testing.B) {
	dev := mobiceal.NewMemDevice(4096, 4096)
	sys, err := mobiceal.Setup(dev, testConfig(7), "decoy", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := sys.Telemetry()
		if snap.Mode == "" {
			b.Fatal("empty snapshot")
		}
	}
}

// TestTelemetryStringOneLiner pins the dm-thin-status-style rendering the
// CLI prints, on a quiet freshly-set-up system.
func TestTelemetryStringOneLiner(t *testing.T) {
	dev := mobiceal.NewMemDevice(4096, 4096)
	sys, err := mobiceal.Setup(dev, testConfig(5), "decoy", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	line := sys.Telemetry().String()
	for _, want := range []string{"rw tx ", " data ", " commits ", " alloc(", " io sub ", " dev w "} {
		if !strings.Contains(line, want) {
			t.Fatalf("one-liner %q missing %q", line, want)
		}
	}
}

// TestFileBackedTelemetryStaysDeniable scans the observability surface the
// real-storage fast path adds — the file syscall block — the way the
// adversary tests scan the rest: the
// JSON wire format, the Prometheus rendering, and the status one-liner
// must name no volume, no hidden/dummy split, nothing but aggregate
// per-device machinery.
func TestFileBackedTelemetryStaysDeniable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.img")
	dev, err := mobiceal.CreateImage(path, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	sys, err := mobiceal.Setup(dev, testConfig(42), "decoy", []string{"hidden-pass"})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden-pass")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*4096)
	for i, vol := range []*mobiceal.Volume{pub, hid} {
		if err := vol.SubmitWrite(uint64(16+32*i), buf).Wait(); err != nil {
			t.Fatal(err)
		}
		if err := vol.Flush().Wait(); err != nil {
			t.Fatal(err)
		}
	}

	tel := sys.Telemetry()
	if tel.File == nil || tel.File.PwritevCalls == 0 {
		t.Fatalf("file syscall surface not live: %+v", tel.File)
	}

	raw, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	var prom strings.Builder
	if err := mobiceal.WritePrometheus(&prom, tel); err != nil {
		t.Fatal(err)
	}
	oneliner := tel.String()
	if !strings.Contains(oneliner, " file buffered preadv ") {
		t.Fatalf("one-liner missing the file fragment: %q", oneliner)
	}
	// The batch fragment says whether scattered extents ride a submission
	// ring or the device fell back — on every surface.
	if !strings.Contains(oneliner, " batch ") || !strings.Contains(oneliner, " ring o") ||
		!strings.Contains(prom.String(), "mobiceal_file_ring_live") ||
		!strings.Contains(string(raw), `"batch_reqs"`) {
		t.Fatalf("batch/ring telemetry missing: %q / %s", oneliner, raw)
	}

	forbidden := []string{"volume", "thin_id", "hidden", "dummy", "decoy", "password", "key"}
	for name, text := range map[string]string{
		"json": strings.ToLower(string(raw)),
		"prom": strings.ToLower(prom.String()),
		"line": strings.ToLower(oneliner),
	} {
		for _, word := range forbidden {
			if strings.Contains(text, word) {
				t.Fatalf("%s surface leaks %q:\n%s", name, word, text)
			}
		}
	}
}
