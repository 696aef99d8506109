package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mobiceal"
)

// TestCLITraceWorkload: the in-process workload mode produces a full
// lifecycle trace — blktrace stages, per-op latency attribution, commit
// attribution — on a live image, and leaves its file system intact.
func TestCLITraceWorkload(t *testing.T) {
	image := initTestImage(t)
	out := captureStdout(t, func() error {
		return run([]string{"trace", "-image", image, "-pass", "pub-pw", "-ops", "16"})
	})
	for _, want := range []string{
		"trace: ", "latency attribution", "queue depth:",
		"Q ", "D ", "C ", "map-resolve", "devop", "commit-flip",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
	// The workload must not corrupt the volume it traced.
	check := captureStdout(t, func() error {
		return run([]string{"check", "-image", image, "-pass", "pub-pw"})
	})
	if !strings.Contains(check, "OK") {
		t.Fatalf("image unhealthy after trace:\n%s", check)
	}
}

// TestCLITraceExportReplay: -jsonl exports raw events that -replay
// re-analyzes to the same request count.
func TestCLITraceExportReplay(t *testing.T) {
	image := initTestImage(t)
	jsonl := filepath.Join(t.TempDir(), "events.jsonl")
	live := captureStdout(t, func() error {
		return run([]string{"trace", "-image", image, "-pass", "pub-pw",
			"-ops", "8", "-jsonl", jsonl})
	})
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatalf("jsonl export missing: %v", err)
	}
	evs, err := mobiceal.ReadTraceJSONL(f)
	_ = f.Close()
	if err != nil {
		t.Fatalf("exported jsonl does not parse: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("exported jsonl is empty")
	}
	replayed := captureStdout(t, func() error {
		return run([]string{"trace", "-replay", jsonl})
	})
	liveHead := strings.SplitN(live, "\n", 2)[0]
	replayHead := strings.SplitN(replayed, "\n", 2)[0]
	if liveHead != replayHead {
		t.Fatalf("replay summary diverges from live:\n live:   %s\n replay: %s",
			liveHead, replayHead)
	}
}

// TestCLITraceScrape: the /debug/flight endpoint serves the recorder's
// window as JSONL and honours the on/off/reset controls; `trace -from`
// analyzes the scrape.
func TestCLITraceScrape(t *testing.T) {
	image := initTestImage(t)
	// trace leaves its events in the recorder and registers the system
	// with the debug server.
	_, addr := runDebug(t, "trace", "-image", image, "-pass", "pub-pw", "-ops", "8")
	cl := &http.Client{Timeout: 5 * time.Second}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("flight scrape status %d", code)
	}
	evs, err := mobiceal.ReadTraceJSONL(strings.NewReader(body))
	if err != nil || len(evs) == 0 {
		t.Fatalf("flight scrape not parseable JSONL (err %v, %d events)", err, len(evs))
	}

	// `trace -from` analyzes the same scrape.
	out := captureStdout(t, func() error {
		return run([]string{"trace", "-from", addr})
	})
	if !strings.Contains(out, "latency attribution") {
		t.Fatalf("trace -from output missing analysis:\n%s", out)
	}

	for _, ctl := range []string{"on", "off", "reset"} {
		code, body = get("/debug/flight?ctl=" + ctl)
		if code != http.StatusOK || !strings.Contains(body, ctl) {
			t.Fatalf("ctl=%s -> %d %q", ctl, code, body)
		}
	}
	if code, body = get("/debug/flight"); code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Fatalf("ring not empty after reset: %d %q", code, body)
	}
	if code, _ = get("/debug/flight?ctl=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus ctl accepted: %d", code)
	}
}

// TestCLIMetricsEndpoint: /metrics serves Prometheus text exposition
// rendered on the standard library, and its label set leaks nothing about
// volumes or the hidden/dummy split.
func TestCLIMetricsEndpoint(t *testing.T) {
	image := initTestImage(t)
	_, addr := runDebug(t, "status", "-image", image)
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := string(raw)

	// Exposition format: HELP/TYPE headers, histogram buckets with a
	// cumulative +Inf terminal and matching _count.
	for _, want := range []string{
		"# HELP mobiceal_pool_provisions_total",
		"# TYPE mobiceal_pool_provisions_total counter",
		"# TYPE mobiceal_pool_alloc_latency_seconds histogram",
		`mobiceal_pool_alloc_latency_seconds_bucket{le="+Inf"}`,
		"mobiceal_pool_alloc_latency_seconds_count",
		"# TYPE mobiceal_io_queue_depth gauge",
		"mobiceal_dev_meta_read_blocks_total",
		// The real-storage fast path surfaces here: file syscall accounting
		// because the CLI image is a FileDevice.
		"# TYPE mobiceal_file_preadv_total counter",
		"mobiceal_file_pwritev_total",
		"mobiceal_file_direct_mode 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// Every sample line must parse as name{optional labels} value.
	sample := regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? [0-9eE+.\-]+$`)
	labels := regexp.MustCompile(`\{([^}]*)\}`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
		// Deniability: the only label ever emitted is the histogram
		// bucket edge — never a volume, hidden, dummy or real/user
		// attribution.
		if m := labels.FindStringSubmatch(line); m != nil {
			for _, kv := range strings.Split(m[1], ",") {
				key := strings.SplitN(kv, "=", 2)[0]
				if key != "le" {
					t.Fatalf("unexpected label %q in %q", key, line)
				}
			}
		}
	}
	for _, leak := range []string{"volume", "hidden", "dummy", "thin_id", "real"} {
		if strings.Contains(body, leak) {
			t.Fatalf("metrics leak %q:\n%s", leak, body)
		}
	}
}
