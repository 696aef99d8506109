package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobiceal"
)

// initTestImage creates a small initialized image and returns its path.
func initTestImage(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	image := filepath.Join(dir, "disk.img")
	if err := run([]string{"init", "-image", image, "-mb", "32",
		"-volumes", "4", "-decoy", "pub-pw"}); err != nil {
		t.Fatalf("init: %v", err)
	}
	return image
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	_ = w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput: %s", runErr, out)
	}
	return string(out)
}

// runDebug runs the CLI with its debug server on a port the kernel picks,
// and returns the command's stdout and the address the server announced on
// stderr.
func runDebug(t *testing.T, args ...string) (out, addr string) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() { os.Stderr = old }()
	out = captureStdout(t, func() error {
		return run(append([]string{"-debug-addr", "127.0.0.1:0"}, args...))
	})
	_ = w.Close()
	logged, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(logged), " on http://")
	if addr, _, ok = strings.Cut(rest, "/"); !ok {
		t.Fatalf("debug server address not announced: %q", logged)
	}
	return out, addr
}

func TestCLIStatusHuman(t *testing.T) {
	image := initTestImage(t)
	out := captureStdout(t, func() error {
		return run([]string{"status", "-image", image, "-events"})
	})
	if !strings.Contains(out, "health: ok") {
		t.Fatalf("status output missing health line: %q", out)
	}
	if !strings.Contains(out, "rw tx ") || !strings.Contains(out, " io sub ") {
		t.Fatalf("status output missing telemetry one-liner: %q", out)
	}
	// Opening for status replays the pool open; its event must show.
	if !strings.Contains(out, "[open]") {
		t.Fatalf("status -events missing pool open event: %q", out)
	}
}

func TestCLIStatusJSON(t *testing.T) {
	image := initTestImage(t)
	out := captureStdout(t, func() error {
		return run([]string{"status", "-image", image, "-json"})
	})
	var parsed struct {
		Healthy   bool `json:"healthy"`
		Telemetry struct {
			Mode string `json:"mode"`
			Meta struct {
				ReadBlocks uint64 `json:"read_blocks"`
			} `json:"meta"`
			Pool struct {
				Events []struct {
					Kind string `json:"kind"`
				} `json:"events"`
			} `json:"pool"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("status -json not parseable: %v\n%s", err, out)
	}
	if !parsed.Healthy || parsed.Telemetry.Mode != "write" {
		t.Fatalf("unexpected status: %+v", parsed)
	}
	if parsed.Telemetry.Meta.ReadBlocks == 0 {
		t.Fatalf("open should have read metadata blocks: %+v", parsed.Telemetry.Meta)
	}
	if len(parsed.Telemetry.Pool.Events) == 0 {
		t.Fatalf("pool event log empty: %+v", parsed.Telemetry.Pool)
	}
}

func TestCLIDebugEndpoints(t *testing.T) {
	image := initTestImage(t)
	out, addr := runDebug(t, "status", "-image", image)
	if !strings.Contains(out, "health: ok") {
		t.Fatalf("status under -debug-addr broken: %q", out)
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("expvar endpoint: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expvar status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("expvar body not JSON: %v", err)
	}
	tel, ok := vars["mobiceal"]
	if !ok {
		t.Fatalf("expvar missing mobiceal variable: %s", body)
	}
	var parsed struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(tel, &parsed); err != nil || parsed.Mode != "write" {
		t.Fatalf("telemetry expvar = %s (err %v)", tel, err)
	}
	// pprof index must be reachable too.
	resp, err = cl.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

// TestCLIGlobalStorageFlags: the file syscall accounting shows for the
// CLI's file-backed image; -direct either opens the image O_DIRECT or
// fails with the clean unsupported error, never a raw errno.
func TestCLIGlobalStorageFlags(t *testing.T) {
	image := initTestImage(t)
	out := captureStdout(t, func() error {
		return run([]string{"status", "-image", image})
	})
	if !strings.Contains(out, " file buffered preadv ") {
		t.Fatalf("status on a file image missing syscall fragment: %q", out)
	}

	if err := run([]string{"-direct", "check", "-image", image}); err != nil {
		if !errors.Is(err, mobiceal.ErrDirectUnsupported) {
			t.Fatalf("-direct check failed with a raw error: %v", err)
		}
		if !strings.Contains(err.Error(), "drop -direct") {
			t.Fatalf("-direct failure lacks the remediation hint: %v", err)
		}
	}
}
