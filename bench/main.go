// Command bench is the repository's benchmark: five workloads that drive
// Mint through its public entry points (the mint package and a real mintd
// child), fourteen end-to-end metrics, an oracle on every answer, and a
// traced mode that measures each layer from outside. README.md in this
// directory explains the metrics and workloads; BENCHMARK.json at the
// repository root is the contract a driver runs it by.
//
//	bash bench/run.sh                        # all workloads, seed 1
//	bash bench/run.sh --workload rpc_mintd   # one workload; last stdout line is its JSON result
//	bash bench/run.sh --trace                # per-layer metrics + out/trace_<workload>.json
//	bash bench/run.sh --selfcheck            # run twice, fail on disagreement beyond the bounds
//	bash bench/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	if len(args) == 1 && args[0] == "contract" {
		return contractMain(stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); empty runs all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "planned length of one workload's timed section")
	traced := fs.Bool("trace", false, "traced run: per-layer metrics and out/trace_<workload>.json")
	smoke := fs.Bool("smoke", false, "harness check at 1/50 counts, in-process workloads only")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and fail if any metric pair disagrees beyond its bound")
	repeat := fs.Int("repeat", 1, "run the selected workloads this many times (several runs per side feed compare's pairs rule)")
	out := fs.String("out", "", "output directory (default bench/out)")
	if err := fs.Parse(mergeTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: --seconds and --repeat must be positive")
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	e := &env{
		seed: *seed, seconds: *seconds, scale: 1,
		root: root, buildDir: filepath.Join(root, ".bench_build"),
		outDir: *out, log: stdout,
	}
	if e.outDir == "" {
		e.outDir = filepath.Join(root, "bench", "out")
	}
	if *smoke {
		e.scale = smokeScale
	}
	e.tmpRoot = filepath.Join(e.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	for _, dir := range []string{e.buildDir, e.outDir, e.tmpRoot} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	cleanup := func() {
		killAllChildren()
		_ = os.RemoveAll(e.tmpRoot)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	// Generator and child both run on two processors, whatever the box has.
	runtime.GOMAXPROCS(2)

	var selected []workload
	switch {
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	default:
		for _, w := range workloads {
			if !*smoke || !w.mintd {
				selected = append(selected, w)
			}
		}
	}

	hdr := header(e, *traced)
	printHeader(stdout, hdr)
	if *selfcheck {
		return selfcheckMain(e, hdr, selected, stdout, stderr)
	}
	file := resultFile{Header: hdr}
	code := 0
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			res, err := runOne(e, w, *traced)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, res, *traced)
			file.Runs = append(file.Runs, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if err := writeJSON(filepath.Join(e.outDir, "result.json"), file); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	// The last line of standard output is the result: the contract's four
	// keys for a single run, the whole file otherwise.
	var last any = file
	if len(file.Runs) == 1 {
		r := file.Runs[0]
		last = map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// mergeTraceValue lets --trace take the driver's separate 0/1 value
// ("--trace 1") as well as stand alone: the flag package would read the
// value of a boolean flag as a positional argument.
func mergeTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--trace" || a == "-trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findRoot walks up from the working directory to the repository root: the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory: run from inside the repository")
		}
		dir = parent
	}
}

// runHeader records what a result was measured on.
type runHeader struct {
	Time       string  `json:"time"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	Claim      any     `json:"claim"` // always null: this benchmark defines the baseline, it claims no gain
}

type resultFile struct {
	Header runHeader   `json:"header"`
	Runs   []runResult `json:"runs"`
}

func header(e *env, traced bool) runHeader {
	commit := "none" // a driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return runHeader{
		Time: time.Now().UTC().Format(time.RFC3339), NProc: runtime.NumCPU(), GOMAXPROCS: 2,
		GoVersion: runtime.Version(), Commit: commit, Seed: e.seed, Seconds: e.seconds, Scale: e.scale, Trace: traced,
	}
}

func printHeader(w io.Writer, h runHeader) {
	fmt.Fprintf(w, "# bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g scale=%g trace=%v\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Scale, h.Trace)
}

// runOne runs one workload once. A traced run gives the workload a quarter
// of the time and spends the rest in the layer lab.
func runOne(e *env, w workload, traced bool) (runResult, error) {
	start := time.Now()
	defs := endToEnd
	if traced {
		full := e.seconds
		e.tr, e.seconds, defs = newTracer(), full/4, perLayer
		defer func() { e.tr, e.seconds = nil, full }()
	}
	r, err := runWorkload(e, w)
	if err != nil {
		return runResult{}, err
	}
	if traced {
		if err := runLab(e, r); err != nil {
			return runResult{}, fmt.Errorf("layer lab: %w", err)
		}
		path := filepath.Join(e.outDir, "trace_"+w.name+".json")
		if err := e.tr.write(path, map[string]any{"workload": w.name, "seed": e.seed, "seconds": e.seconds * 4}); err != nil {
			return runResult{}, err
		}
		fmt.Fprintf(e.log, "# wrote %s\n", path)
	}
	res := r.result(w.name, e.seed, traced, defs)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// printResult prints every metric by name with its unit.
func printResult(w io.Writer, res runResult, traced bool) {
	verdict := "ok"
	if !res.Correct {
		verdict = "FAILED"
	}
	if res.Invalid {
		verdict += " (invalid: generator-bound)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %.1fs  oracle: %s\n", res.Workload, res.Seed, res.WallS, verdict)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		note := ""
		if n, ok := res.Samples[d.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-10s%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, note)
	}
	if !traced {
		fmt.Fprintf(w, "  %-36s %14.6g %-10s  (%d failed of %d attempted)\n", "failed_ratio",
			ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	}
	if !traced {
		for _, name := range sortedKeys(res.Extra) {
			fmt.Fprintf(w, "  also: %-30s %14.6g\n", name, res.Extra[name])
		}
	}
	for _, f := range res.Flags {
		fmt.Fprintf(w, "  note: %s\n", f)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
