package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mobiceal"
)

// cmdTrace is the btt analogue over the flight recorder. Three sources:
//
//   - default: open -image, enable the recorder, drive a short synthetic
//     workload through the async path (Submit*/Flush), analyze the window;
//   - -from URL: scrape a running process's /debug/flight JSONL endpoint
//     (served by -debug-addr) and analyze that;
//   - -replay FILE: analyze a previously exported JSONL event stream.
//
// -jsonl FILE additionally exports the raw events for later -replay;
// -json prints the full TraceReport instead of the human tables.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	image := fs.String("image", "", "device image path (in-process workload mode)")
	pass := fs.String("pass", "", "password for the traced volume (default: public decoy required)")
	ops := fs.Int("ops", 64, "workload size: async writes then reads, plus a flush")
	from := fs.String("from", "", "scrape a live /debug/flight endpoint (URL or host:port)")
	replay := fs.String("replay", "", "analyze a JSONL event file exported earlier")
	jsonOut := fs.Bool("json", false, "print the full TraceReport as JSON")
	jsonlOut := fs.String("jsonl", "", "also export the raw events as JSONL to this file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var events []mobiceal.FlightEvent
	var err error
	switch {
	case *replay != "":
		events, err = replayEvents(*replay)
	case *from != "":
		events, err = scrapeEvents(*from)
	case *image != "":
		if *pass == "" {
			return errors.New("trace: -pass is required with -image")
		}
		events, err = workloadEvents(*image, *pass, *ops)
	default:
		return errors.New("trace: one of -image, -from, -replay is required")
	}
	if err != nil {
		return err
	}

	if *jsonlOut != "" {
		if err := exportJSONL(*jsonlOut, events); err != nil {
			return err
		}
	}

	rep := mobiceal.AnalyzeTrace(events)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	renderTraceReport(os.Stdout, rep)
	return nil
}

// replayEvents loads a JSONL export.
func replayEvents(path string) ([]mobiceal.FlightEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mobiceal.ReadTraceJSONL(f)
}

// scrapeEvents GETs the flight JSONL from a live debug server. Accepts a
// bare host:port (the /debug/flight path is appended) or a full URL.
func scrapeEvents(from string) ([]mobiceal.FlightEvent, error) {
	url := from
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url, "/debug/flight") {
		url = strings.TrimRight(url, "/") + "/debug/flight"
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("trace: scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("trace: %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return mobiceal.ReadTraceJSONL(resp.Body)
}

// workloadEvents opens the image, enables tracing, and drives a short
// asynchronous workload through whichever volume the password unlocks:
// `ops` block writes, a flush (one group commit), `ops` reads back. The
// recorder is enabled only for the window, so the snapshot holds exactly
// this workload's lifecycle events.
//
// The writes land on the TAIL blocks of the volume — away from the file
// system's metadata at the head — but they are real raw-block writes:
// anything stored in those blocks is overwritten. Use a scratch image.
func workloadEvents(image, pass string, ops int) ([]mobiceal.FlightEvent, error) {
	dev, err := openImageCLI(image)
	if err != nil {
		return nil, err
	}
	defer closeQuiet(dev)
	sys, err := mobiceal.Open(dev, mobiceal.Config{})
	if err != nil {
		return nil, err
	}
	registerDebugSystem(sys)
	vol, err := sys.OpenPublic(pass)
	if err != nil {
		if vol, err = sys.OpenHidden(pass); err != nil {
			return nil, fmt.Errorf("trace: password opens no volume: %w", err)
		}
	}
	if ops < 1 {
		ops = 1
	}
	span := vol.Device().NumBlocks()
	if span == 0 {
		return nil, errors.New("trace: empty volume")
	}
	if uint64(ops) > span {
		ops = int(span)
	}
	base := span - uint64(ops)

	fr := sys.FlightRecorder()
	fr.Reset()
	fr.SetEnabled(true)
	defer fr.SetEnabled(false)

	bs := vol.Device().BlockSize()
	buf := make([]byte, bs)
	futs := make([]*mobiceal.Future, 0, ops)
	for i := 0; i < ops; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		blk := base + uint64(i)
		futs = append(futs, vol.SubmitWrite(blk, append([]byte(nil), buf...)))
	}
	if err := mobiceal.WaitAll(futs...); err != nil {
		return nil, err
	}
	if err := vol.Flush().Wait(); err != nil {
		return nil, err
	}
	futs = futs[:0]
	dsts := make([][]byte, ops)
	for i := 0; i < ops; i++ {
		dsts[i] = make([]byte, bs)
		futs = append(futs, vol.SubmitRead(base+uint64(i), dsts[i]))
	}
	if err := mobiceal.WaitAll(futs...); err != nil {
		return nil, err
	}
	fr.SetEnabled(false)
	events := fr.Events()
	if err := sys.Close(); err != nil {
		return nil, err
	}
	return events, nil
}

// exportJSONL writes the events one JSON object per line.
func exportJSONL(path string, events []mobiceal.FlightEvent) error {
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// renderTraceReport prints the human tables: window summary, stage counts,
// per-op Q2D/D2C/Q2C, queueing, commit folding, errors.
func renderTraceReport(w io.Writer, rep *mobiceal.TraceReport) {
	fmt.Fprintf(w, "trace: %d events, %d requests (%d completed) over %v\n",
		rep.Events, rep.Requests, rep.Completed, time.Duration(rep.SpanNS))

	if len(rep.Stages) > 0 {
		fmt.Fprintf(w, "\n%-14s %8s %10s\n", "stage", "events", "blocks")
		for _, sc := range rep.Stages {
			fmt.Fprintf(w, "%-14s %8d %10d\n", sc.Stage, sc.Count, sc.N)
		}
	}

	if len(rep.Ops) > 0 {
		fmt.Fprintf(w, "\nlatency attribution (btt-style):\n")
		for _, op := range rep.Ops {
			fmt.Fprintf(w, "%-8s Q2D %s\n", op.Op, op.Q2D)
			fmt.Fprintf(w, "%-8s D2C %s\n", "", op.D2C)
			fmt.Fprintf(w, "%-8s Q2C %s\n", "", op.Q2C)
		}
	}

	fmt.Fprintf(w, "\nqueue depth: max %d mean %.2f; in flight: max %d\n",
		rep.QueueMax, rep.QueueMean, rep.FlightMax)
	if rep.Commits.Rounds > 0 {
		fmt.Fprintf(w, "commits: %d rounds, %d folded (mean %.2f); door wait %s\n",
			rep.Commits.Rounds, rep.Commits.Folded, rep.Commits.MeanFolded,
			rep.Commits.DoorWait)
	}
	if len(rep.Errors) > 0 {
		classes := make([]string, 0, len(rep.Errors))
		for c := range rep.Errors {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, c := range classes {
			parts = append(parts, fmt.Sprintf("%s=%d", c, rep.Errors[c]))
		}
		fmt.Fprintf(w, "errors: %s\n", strings.Join(parts, " "))
	}
}
