// Command bench is the repo's performance ledger: seven named closed-loop
// workloads over the full MobiCeal stack, each reporting the same
// end-to-end metrics and a per-layer budget whose self times sum to the
// serial op. See README.md for the definitions.
//
//	go run -C bench .                              every workload, both metric sets
//	go run -C bench . --workload mem_read_4k --seed 3 --seconds 10 --trace 0
//	go run -C bench . -runs 10 -json a.json        a set of runs, seeds 1..10
//	go run -C bench . -compare a.json b.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// detailPrefix marks the line on which a single-workload run prints its
// whole result for the all-workloads parent to collect.
const detailPrefix = "#detail "

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the one-line JSON result (default: all, one child process each)")
	seed := fs.Uint64("seed", 1, "seeds the op stream and Config.Seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 2, "metric set of a -workload run: 0 end-to-end, 1 per-layer, 2 both")
	short := fs.Bool("short", false, "smoke-test sizes: 100 ms windows, 256-op traced run")
	dir := fs.String("dir", ".work", "directory for O_DIRECT images; must be disk-backed (tmpfs refuses O_DIRECT)")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file as JSONL (with -workload)")
	jsonOut := fs.String("json", "", "write every run's result to this file, for -compare")
	runs := fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, …")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 2 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive and -trace 0, 1 or 2")
		return 2
	}

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		res, err := runWorkload(options{w: w, seed: *seed, seconds: *seconds, trace: *trace,
			short: *short, dir: *dir, traceOut: *traceOut})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printResult(stdout, res)
		detail, _ := json.Marshal(res) // plain data: cannot fail
		fmt.Fprintf(stdout, "%s%s\n", detailPrefix, detail)
		fmt.Fprintln(stdout, contractLine(res, *trace))
		if !res.Correct {
			return 1
		}
		return 0
	}

	// Every workload, each run in a child process of its own so that
	// setup_s and rss_mb belong to one workload.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	out := resultFile{Env: environment(*dir)}
	fmt.Fprintf(stdout, "environment: %s\n", out.Env)
	code := 0
	for i := range workloads {
		for r := 0; r < *runs; r++ {
			childArgs := []string{"--workload", workloads[i].name, "--seed", strconv.FormatUint(*seed+uint64(r), 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "2", "-dir", *dir}
			if *short {
				childArgs = append(childArgs, "-short")
			}
			res, err := runChild(exe, childArgs, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", workloads[i].name, err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			out.Runs = append(out.Runs, *res)
		}
	}
	if *jsonOut != "" {
		data, _ := json.MarshalIndent(out, "", " ") // plain data: cannot fail
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if code != 0 {
		fmt.Fprintln(stdout, "FAILED: at least one workload did not run or did not verify")
	}
	return code
}

// runChild runs one workload in a child process, passing its report
// through to stdout, and returns the result from its detail line.
func runChild(exe string, args []string, stdout, stderr io.Writer) (*result, error) {
	cmd := exec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var res *result
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, detailPrefix)
		if !ok {
			fmt.Fprintln(stdout, line)
			continue
		}
		res = new(result)
		if err := json.Unmarshal([]byte(rest), res); err != nil {
			return nil, fmt.Errorf("parsing child result: %w", err)
		}
		break // what follows is the contract line, which repeats the detail
	}
	if res == nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result")
	}
	return res, nil
}

// contractLine is the one JSON object a -workload run ends with: exactly
// correct, attempted, failed and the metric set --trace selected.
func contractLine(res *result, trace int) string {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]entry{}
	add := func(defs []metricDef) {
		for _, d := range defs {
			m[d.name] = entry{res.Metrics[d.name].Value, d.unit}
		}
	}
	if trace != 1 {
		add(endToEnd)
	}
	if trace != 0 {
		add(perLayer)
	}
	line, _ := json.Marshal(map[string]any{ // plain data: cannot fail
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": m,
	})
	return string(line)
}

// printResult prints every metric the run measured by name, with its unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s  seed %d  GOMAXPROCS %d  clients %d\n", res.Workload, res.Seed, runtime.GOMAXPROCS(0), numClients)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := res.Metrics[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-6s", d.name, v.Value, d.unit)
			if v.Q1 != 0 || v.Q3 != 0 {
				fmt.Fprintf(w, "  windows q1 %.4f q3 %.4f", v.Q1, v.Q3)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  %-34s %14.6f %-6s  %d failed of %d attempted; fewest samples in a window %d\n",
		"fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted, res.MinWindowSamples)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  VERIFICATION FAILED: %s\n", p)
	}
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Env  string   `json:"env"`
	Runs []result `json:"runs"`
}

// environment describes where the numbers were taken.
func environment(dir string) string {
	env := fmt.Sprintf("%s %s/%s nproc %d GOMAXPROCS %d", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		var rel []byte
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			rel = append(rel, byte(c))
		}
		env += " kernel " + string(rel)
	}
	_ = os.MkdirAll(dir, 0o755) // a missing directory only loses the file-system note
	var sf syscall.Statfs_t
	if syscall.Statfs(dir, &sf) == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		fsName, ok := names[int64(sf.Type)]
		if !ok {
			fsName = fmt.Sprintf("%#x", sf.Type)
		}
		env += " images on " + fsName
	}
	return env
}
