// Command benchbudget gates allocation regressions on the hot paths: it
// parses `go test -bench -benchmem` output from stdin and fails when a
// benchmark's allocs/op exceeds its committed budget.
//
// The budget file (default tools/benchbudget/budget.txt) holds one
// "<BenchmarkName> <max-allocs-per-op>" pair per line; blank lines and
// #-comments are ignored. Budgets gate allocs/op — a count, deterministic
// on any hardware — rather than ns/op, which would flake on shared CI
// runners. Raising a budget is a reviewed diff, not a silent drift.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkClusterCaptureSerial$|BenchmarkQueryCold$' -benchmem . |
//	    go run ./tools/benchbudget
//
// Every budgeted benchmark must appear in the input; a missing one fails
// the gate (it usually means the bench was renamed and the budget silently
// stopped gating anything). The exit code is 0 when every budget holds, 1
// when one is exceeded or missing, and 2 when the budget file or the input
// cannot be read.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// budget is one benchmark's allocation ceiling.
type budget struct {
	name string
	max  int64
}

func readBudgets(path string) ([]budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []budget
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<name> <allocs>\", got %q", path, ln+1, line)
		}
		max, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || max < 0 {
			return nil, fmt.Errorf("%s:%d: bad allocation budget %q", path, ln+1, fields[1])
		}
		out = append(out, budget{name: fields[0], max: max})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no budgets", path)
	}
	return out, nil
}

// parseBenchLine extracts (name, allocs/op) from one `go test -benchmem`
// result line, e.g.
//
//	BenchmarkClusterCaptureSerial-8   27939   40171 ns/op   3458 B/op   41 allocs/op
//
// ok is false for non-benchmark lines.
func parseBenchLine(line string) (name string, allocs int64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	name = fields[0]
	if i := strings.IndexByte(name, '-'); i >= 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	for i := len(fields) - 1; i > 0; i-- {
		if fields[i] == "allocs/op" {
			v, err := strconv.ParseInt(fields[i-1], 10, 64)
			if err != nil {
				return "", 0, false
			}
			return name, v, true
		}
	}
	return "", 0, false
}

func main() {
	budgetPath := flag.String("budget", "tools/benchbudget/budget.txt", "budget file")
	flag.Parse()
	os.Exit(gate(*budgetPath, os.Stdin, os.Stdout, os.Stderr))
}

// gate checks the bench output on in against the budget file, passing the
// output through to stdout for the CI log, and returns the exit code.
func gate(budgetPath string, in io.Reader, stdout, stderr io.Writer) int {
	budgets, err := readBudgets(budgetPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchbudget:", err)
		return 2
	}

	measured := map[string]int64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(stdout, line)
		if name, allocs, ok := parseBenchLine(line); ok {
			measured[name] = allocs
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "benchbudget: reading stdin:", err)
		return 2
	}

	code := 0
	for _, b := range budgets {
		got, ok := measured[b.name]
		switch {
		case !ok:
			fmt.Fprintf(stderr, "benchbudget: %s: not found in bench output (renamed? run it!)\n", b.name)
			code = 1
		case got > b.max:
			fmt.Fprintf(stderr, "benchbudget: %s: %d allocs/op exceeds budget %d\n", b.name, got, b.max)
			code = 1
		default:
			fmt.Fprintf(stdout, "benchbudget: %s: %d allocs/op within budget %d\n", b.name, got, b.max)
		}
	}
	return code
}
