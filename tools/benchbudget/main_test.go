package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBudgets writes a budget file into a fresh temp dir and returns its path.
func writeBudgets(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "budget.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadBudgets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		content string
		want    []budget
		wantErr string
	}{
		{
			name:    "comments and blank lines are skipped",
			content: "# header\n\nBenchmarkA 60\n   # indented comment\n\tBenchmarkB 0  \n",
			want:    []budget{{"BenchmarkA", 60}, {"BenchmarkB", 0}},
		},
		{name: "too few fields", content: "BenchmarkA\n", wantErr: ":1: want"},
		{name: "too many fields", content: "# c\nBenchmarkA 60 70\n", wantErr: ":2: want"},
		{name: "negative budget", content: "BenchmarkA -1\n", wantErr: `bad allocation budget "-1"`},
		{name: "non-numeric budget", content: "BenchmarkA lots\n", wantErr: `bad allocation budget "lots"`},
		{name: "empty file", content: "", wantErr: "no budgets"},
		{name: "only comments", content: "# nothing\n\n", wantErr: "no budgets"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readBudgets(writeBudgets(t, tc.content))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line   string
		name   string
		allocs int64
		ok     bool
	}{
		{"BenchmarkClusterCaptureSerial-8   27939   40171 ns/op   3458 B/op   41 allocs/op", "BenchmarkClusterCaptureSerial", 41, true},
		{"BenchmarkQueryCold   5000   1234 ns/op   512 B/op   82 allocs/op", "BenchmarkQueryCold", 82, true},
		{"BenchmarkTelemetryObserve-2   5000   12.5 ns/op", "", 0, false},           // no allocs/op column
		{"BenchmarkBroken-2   5000   1 ns/op   0 B/op   x allocs/op", "", 0, false}, // unparseable count
		{"goos: linux", "", 0, false},
		{"PASS", "", 0, false},
		{"ok  	repro	1.234s", "", 0, false},
	} {
		name, allocs, ok := parseBenchLine(tc.line)
		if name != tc.name || allocs != tc.allocs || ok != tc.ok {
			t.Errorf("parseBenchLine(%q) = (%q, %d, %v), want (%q, %d, %v)",
				tc.line, name, allocs, ok, tc.name, tc.allocs, tc.ok)
		}
	}
}

func TestGateExitCodes(t *testing.T) {
	budgets := writeBudgets(t, "BenchmarkA 10\nBenchmarkB 5\n")
	for _, tc := range []struct {
		name   string
		input  string
		want   int
		stderr string
	}{
		{"within budget", "BenchmarkA-2 1 1 ns/op 0 B/op 10 allocs/op\nBenchmarkB 1 1 ns/op 0 B/op 0 allocs/op\n", 0, ""},
		{"over budget", "BenchmarkA-2 1 1 ns/op 0 B/op 11 allocs/op\nBenchmarkB 1 1 ns/op 0 B/op 0 allocs/op\n", 1, "BenchmarkA: 11 allocs/op exceeds budget 10"},
		{"budgeted benchmark missing", "BenchmarkA-2 1 1 ns/op 0 B/op 3 allocs/op\nPASS\n", 1, "BenchmarkB: not found"},
		{"empty input", "", 1, "BenchmarkA: not found"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := gate(budgets, strings.NewReader(tc.input), io.Discard, &stderr); got != tc.want {
				t.Fatalf("exit code %d, want %d (stderr: %s)", got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q does not name %q", stderr.String(), tc.stderr)
			}
		})
	}
	if got := gate(filepath.Join(t.TempDir(), "absent.txt"), strings.NewReader(""), io.Discard, io.Discard); got != 2 {
		t.Fatalf("unreadable budget file: exit code %d, want 2", got)
	}
}
