package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// compare judges B against A per metric and workload, by the rules of the
// choosing-metrics guide (§6.5, §8):
//
//	regressed   B's median is worse than A's by more than the metric's bound
//	unresolved  A's own runs spread (Q3-Q1 over the median) wider than the
//	            bound, so a difference of that size cannot be told from noise
//	improved    B wins at least nine tenths of the run pairs (ties count for
//	            neither) and the medians differ by more than A's spread;
//	            needs at least ten runs a side
//	ok          none of the above
//
// With one run a side there is no spread to measure: the verdict is ok or
// regressed on the single pair. A file may hold several runs of a workload
// (--repeat); runs pair up in file order.

type verdict struct {
	Workload, Metric, Unit string
	MedA, MedB             float64
	Rel                    float64 // (B-A)/A, signed so that positive is worse
	Spread                 float64 // A's IQR / median
	Bound                  float64
	Verdict                string
	Runs                   int
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 1
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 1
	}
	vs, failures := compareFiles(a, b)
	printVerdicts(stdout, vs)
	for _, f := range failures {
		fmt.Fprintf(stdout, "FAILED OPS: %s\n", f)
	}
	for _, v := range vs {
		if v.Verdict == "regressed" {
			return 1
		}
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return f, fmt.Errorf("%s: no runs", path)
	}
	return f, nil
}

// compareFiles returns one verdict per end-to-end metric and workload that
// both files measured, and a line per workload where B failed more ops than
// A: any rise in failed_ratio is a regression.
func compareFiles(a, b resultFile) ([]verdict, []string) {
	group := func(f resultFile) (map[string][]runResult, []string) {
		by := map[string][]runResult{}
		var order []string
		for _, r := range f.Runs {
			if r.Trace {
				continue // per-layer metrics carry no bound
			}
			if _, ok := by[r.Workload]; !ok {
				order = append(order, r.Workload)
			}
			by[r.Workload] = append(by[r.Workload], r)
		}
		return by, order
	}
	ga, order := group(a)
	gb, _ := group(b)
	var out []verdict
	var failures []string
	for _, w := range order {
		ra, rb := ga[w], gb[w]
		if len(rb) == 0 {
			continue
		}
		var fa, fb float64
		for _, r := range ra {
			fa += ratio(float64(r.Failed), float64(r.Attempted))
		}
		for _, r := range rb {
			fb += ratio(float64(r.Failed), float64(r.Attempted))
		}
		if fb/float64(len(rb)) > fa/float64(len(ra)) {
			failures = append(failures, fmt.Sprintf("%s: failed_ratio rose from %.3g to %.3g", w, fa/float64(len(ra)), fb/float64(len(rb))))
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			out = append(out, judge(w, d, va, vb))
		}
	}
	return out, failures
}

func values(runs []runResult, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && !r.Invalid {
			v = append(v, m.Value)
		}
	}
	return v
}

func judge(workload string, d metricDef, a, b []float64) verdict {
	v := verdict{Workload: workload, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
		MedA: median(a), MedB: median(b), Runs: min(len(a), len(b)), Verdict: "ok"}
	worse := v.MedB - v.MedA
	if d.Better == "higher" {
		worse = -worse
	}
	v.Rel = ratio(worse, v.MedA)
	if len(a) >= 2 {
		q1, q3 := quartiles(a)
		v.Spread = ratio(q3-q1, v.MedA)
	}
	switch {
	case v.Spread > d.Bound:
		v.Verdict = "unresolved"
	case v.Rel > d.Bound:
		v.Verdict = "regressed"
	case v.Runs >= 10 && -v.Rel > v.Spread && wins(d, a, b) >= 0.9:
		v.Verdict = "improved"
	}
	return v
}

// wins is the share of run pairs B wins, ties counting for neither side.
func wins(d metricDef, a, b []float64) float64 {
	won, n := 0, min(len(a), len(b))
	for i := 0; i < n; i++ {
		if (d.Better == "lower" && b[i] < a[i]) || (d.Better == "higher" && b[i] > a[i]) {
			won++
		}
	}
	return ratio(float64(won), float64(n))
}

func printVerdicts(w io.Writer, vs []verdict) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tworse by\tA spread\tbound\truns\tverdict")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%d\t%s\n",
			v.Workload, v.Metric, v.MedA, v.MedB, v.Unit, v.Rel*100, v.Spread*100, v.Bound*100, v.Runs, v.Verdict)
	}
	tw.Flush()
}

// selfcheckMain is the repeatability check: the selected workloads run
// twice on the same tree, and any end-to-end pair that disagrees beyond its
// bound — in either direction — fails it.
func selfcheckMain(e *env, hdr runHeader, selected []workload, stdout, stderr io.Writer) int {
	var files [2]resultFile
	for side := range files {
		files[side].Header = hdr
		for _, w := range selected {
			res, err := runOne(e, w, false)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, res, false)
			files[side].Runs = append(files[side].Runs, res)
		}
		path := filepath.Join(e.outDir, fmt.Sprintf("selfcheck_%c.json", 'a'+side))
		if err := writeJSON(path, files[side]); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, "\n== selfcheck: second set against the first")
	forward, f1 := compareFiles(files[0], files[1])
	backward, f2 := compareFiles(files[1], files[0])
	printVerdicts(stdout, forward)
	code := 0
	for i := range forward {
		if forward[i].Verdict == "regressed" || backward[i].Verdict == "regressed" {
			fmt.Fprintf(stdout, "DISAGREE: %s %s differs by %.1f%%, bound %.0f%%\n",
				forward[i].Workload, forward[i].Metric, forward[i].Rel*100, forward[i].Bound*100)
			code = 1
		}
	}
	for _, r := range append(files[0].Runs, files[1].Runs...) {
		if !r.Correct {
			fmt.Fprintf(stdout, "FAILED OPS: %s failed %d of %d\n", r.Workload, r.Failed, r.Attempted)
			code = 1
		}
	}
	if len(f1)+len(f2) > 0 {
		code = 1
	}
	if code == 0 {
		fmt.Fprintln(stdout, "selfcheck: every pair agrees within its bound")
	}
	return code
}
