package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// compareFiles judges result file b against baseline a: one row per
// workload, one cell per end-to-end metric with the verdict, how much
// worse (+) or better (−) b's median is, and the spread the verdict had to
// see through. It returns 1 when anything regressed.
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the spread is wider than the bound, so neither can be said —
//	            unless every run of b reads better than every run of a
//
// The spread of a set of runs is the distance between the quartiles of
// its values as a share of their median; a file with one run per workload
// falls back on the quartiles of that run's own windows.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareSets(a, b, stdout)
}

func loadResults(path string) (map[string][]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string][]result{}
	for _, r := range f.Runs {
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by, nil
}

// spreadOf is the relative quartile distance of one metric over a set of
// runs, and the values themselves.
func spreadOf(runs []result, name string) (vals []float64, spread float64) {
	for _, r := range runs {
		vals = append(vals, r.Metrics[name].Value)
	}
	if len(vals) == 1 {
		v := runs[0].Metrics[name]
		return vals, ratio(v.Q3-v.Q1, v.Value)
	}
	q1, med, q3 := quartiles(vals)
	return vals, ratio(q3-q1, med)
}

func compareSets(a, b map[string][]result, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "\t%s (%.0f%%)", d.name, 100*d.bound)
	}
	fmt.Fprintln(tw, "\tfail_ratio (0)")
	counts := map[string]int{}
	for i := range workloads {
		name := workloads[i].name
		ra, rb := a[name], b[name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\tmissing from one file\n", name)
			counts["regressed"]++
			continue
		}
		fmt.Fprint(tw, name)
		for _, d := range endToEnd {
			va, sa := spreadOf(ra, d.name)
			vb, sb := spreadOf(rb, d.name)
			medA, medB := median(va), median(vb)
			worse := ratio(medB-medA, medA)
			allBetter := slices.Max(vb) < slices.Min(va)
			if d.better == "higher" {
				worse = -worse
				allBetter = slices.Min(vb) > slices.Max(va)
			}
			spread := max(sa, sb)
			verdict := "ok"
			switch {
			case spread > d.bound && !allBetter:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
			}
			counts[verdict]++
			fmt.Fprintf(tw, "\t%s %+.1f%% ±%.1f%%", verdict, 100*worse, 100*spread)
		}
		var failed, attempted uint64
		correct := true
		for _, r := range rb {
			failed += r.Failed
			attempted += r.Attempted
			correct = correct && r.Correct
		}
		verdict := "ok"
		if failed > 0 || !correct {
			verdict = "regressed"
		}
		counts[verdict]++
		fmt.Fprintf(tw, "\t%s %d/%d\n", verdict, failed, attempted)
	}
	_ = tw.Flush() // stdout: nothing to do about a failed write
	fmt.Fprintf(stdout, "%d ok, %d regressed, %d unresolved\n", counts["ok"], counts["regressed"], counts["unresolved"])
	if counts["regressed"] > 0 {
		return 1
	}
	return 0
}
