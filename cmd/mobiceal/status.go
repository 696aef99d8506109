package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"sync"
	"sync/atomic"

	"mobiceal"
)

// debugSys holds the most recently opened system so the expvar endpoint
// can snapshot it while a subcommand runs.
var debugSys atomic.Pointer[mobiceal.System]

// registerDebugSystem points the debug endpoints at sys.
func registerDebugSystem(sys *mobiceal.System) { debugSys.Store(sys) }

var publishOnce sync.Once

// startDebugServer serves expvar (/debug/vars), pprof (/debug/pprof/),
// Prometheus text exposition (/metrics) and the flight recorder
// (/debug/flight) on addr for the lifetime of the process. Every surface
// renders the current system's state on scrape — memory-only, like the
// telemetry itself; nothing the server shows survives the process.
func startDebugServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug-addr: %w", err)
	}
	publishOnce.Do(func() {
		expvar.Publish("mobiceal", expvar.Func(func() any {
			sys := debugSys.Load()
			if sys == nil {
				return nil
			}
			return sys.Telemetry()
		}))
		http.HandleFunc("/metrics", serveMetrics)
		http.HandleFunc("/debug/flight", serveFlight)
	})
	fmt.Fprintf(os.Stderr, "debug: expvar, pprof, /metrics and /debug/flight on http://%s/\n", ln.Addr())
	go func() { _ = http.Serve(ln, nil) }()
	return nil
}

// serveMetrics renders the telemetry snapshot in Prometheus text
// exposition format (stdlib-rendered; see core's WritePrometheus).
func serveMetrics(w http.ResponseWriter, _ *http.Request) {
	sys := debugSys.Load()
	if sys == nil {
		http.Error(w, "no system open", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = mobiceal.WritePrometheus(w, sys.Telemetry())
}

// serveFlight controls and drains the flight recorder. GET with no query
// streams the current event window as JSONL (the `mobiceal trace -from`
// scrape format); ?ctl=on|off|reset toggles recording or clears the ring.
func serveFlight(w http.ResponseWriter, r *http.Request) {
	sys := debugSys.Load()
	if sys == nil {
		http.Error(w, "no system open", http.StatusServiceUnavailable)
		return
	}
	fr := sys.FlightRecorder()
	switch ctl := r.URL.Query().Get("ctl"); ctl {
	case "":
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = fr.WriteJSONL(w)
	case "on", "off":
		fr.SetEnabled(ctl == "on")
		fmt.Fprintln(w, ctl)
	case "reset":
		fr.Reset()
		fmt.Fprintln(w, "reset")
	default:
		http.Error(w, "unknown ctl (want on|off|reset)", http.StatusBadRequest)
	}
}

// cmdStatus prints the system's health and telemetry snapshot: the dm-thin
// style one-liner by default, the full snapshot with -json.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	jsonOut := fs.Bool("json", false, "print the full snapshot as JSON")
	events := fs.Bool("events", false, "also print the pool event log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" {
		return errors.New("status: -image is required")
	}
	dev, err := openImageCLI(*image)
	if err != nil {
		return err
	}
	defer closeQuiet(dev)
	sys, err := mobiceal.Open(dev, mobiceal.Config{})
	if err != nil {
		return err
	}
	registerDebugSystem(sys)
	health := sys.Health()
	tel := sys.Telemetry()

	if *jsonOut {
		out := struct {
			Healthy   bool               `json:"healthy"`
			Telemetry mobiceal.Telemetry `json:"telemetry"`
		}{health.Healthy(), tel}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	state := "ok"
	if !health.Healthy() {
		state = "degraded"
	}
	fmt.Printf("health: %s\n", state)
	fmt.Println(tel.String())
	if *events {
		for _, e := range tel.Pool.Events {
			fmt.Printf("  event %d +%v [%s] %s\n", e.Seq, e.At, e.Kind, e.Detail)
		}
	}
	return nil
}
