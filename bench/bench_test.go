package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/mint"
)

func TestPickTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		got := pickTail(c.n)
		if got != c.want {
			t.Errorf("pickTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got > 50 && float64(c.n)*(100-got) < minBeyond*100 {
			t.Errorf("pickTail(%d) = p%g leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if got := percentile(v, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31 (Python's exclusive method)", q1, q3)
	}
}

func TestSummarizeIgnoresOneNoisyWindow(t *testing.T) {
	samples := make([]float64, 20*windowSamples)
	for i := range samples {
		samples[i] = 100
		if i%50 == 0 {
			samples[i] = 500 // a steady 2% tail
		}
	}
	for i := 3 * windowSamples; i < 4*windowSamples; i++ {
		samples[i] = 10_000 // one window of twenty hit by a stall
	}
	s := summarize(samples)
	if s.P50 != 100 || s.Tail != 500 || s.TailAt != 99 || s.N != len(samples) {
		t.Errorf("summarize = %+v, want p50 100, p99 500", s)
	}
	if got := summarize(make([]float64, 150)); got.TailAt != 90 {
		t.Errorf("150 samples report p%g, want p90", got.TailAt)
	}
}

func TestCorpusIsSeededAndStratified(t *testing.T) {
	a, b, other := newCorpus(7, 512, false), newCorpus(7, 512, false), newCorpus(8, 512, false)
	if len(a.pool) != 512 || len(a.warm) != warmupTraces {
		t.Fatalf("pool %d, warm %d", len(a.pool), len(a.warm))
	}
	for k := range a.pool {
		if a.pool[k].Serialize() != b.pool[k].Serialize() {
			t.Fatalf("same seed, different pool trace %d", k)
		}
	}
	same := 0
	for k := range a.pool {
		if strings.ReplaceAll(a.pool[k].Serialize(), a.pool[k].TraceID, "") ==
			strings.ReplaceAll(other.pool[k].Serialize(), other.pool[k].TraceID, "") {
			same++
		}
	}
	if same > len(a.pool)/10 {
		t.Errorf("seeds 7 and 8 share %d of %d pool traces", same, len(a.pool))
	}
	// Stratified: the shape does not depend on the seed.
	faulty := func(c *corpus) (n int) {
		for _, tr := range c.pool {
			if root := tr.Root(); root != nil {
				if _, ok := root.Attributes["is_abnormal"]; ok {
					n++
				}
			}
		}
		return n
	}
	wantFaulty := 2 * (256 / int(1/faultFrac)) // every 20th trace of each system's 256
	if fa, fo := faulty(a), faulty(other); fa != fo || fa != wantFaulty {
		t.Errorf("faulty traces: seed 7 has %d, seed 8 has %d, want %d each", fa, fo, wantFaulty)
	}
	if sa, so := a.spansIn(512), other.spansIn(512); math.Abs(float64(sa-so)) > 0.02*float64(sa) {
		t.Errorf("span counts differ across seeds: %d vs %d", sa, so)
	}
}

func TestStampAndRawAccounting(t *testing.T) {
	c := newCorpus(3, 64, false)
	var raw, spans int64
	ids := map[string]bool{}
	for i := 0; i < 200; i++ {
		if got := c.raw(i); got != raw {
			t.Fatalf("raw(%d) = %d, want %d", i, got, raw)
		}
		if got := c.spansIn(i); got != spans {
			t.Fatalf("spansIn(%d) = %d, want %d", i, got, spans)
		}
		tr := c.stamp(i)
		if tr.TraceID != c.id(i) || len(tr.TraceID) != 32 || ids[tr.TraceID] {
			t.Fatalf("op %d stamped %q", i, tr.TraceID)
		}
		ids[tr.TraceID] = true
		for _, s := range tr.Spans {
			if s.TraceID != tr.TraceID {
				t.Fatalf("op %d: span keeps trace ID %q", i, s.TraceID)
			}
		}
		if op, ok := opOfID(tr.TraceID); !ok || op != i {
			t.Fatalf("opOfID(%q) = %d, %v", tr.TraceID, op, ok)
		}
		raw += int64(tr.Size())
		spans += int64(len(tr.Spans))
	}
	if c.id(5) == c.neverID(5) {
		t.Error("captured and never-captured ID spaces overlap")
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio")
	}
}

func TestZipfOrderIsSeeded(t *testing.T) {
	a, b, other := zipfOrder(1, zipfS, 1000, 5000), zipfOrder(1, zipfS, 1000, 5000), zipfOrder(2, zipfS, 1000, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different query sequence")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("different seeds, same query sequence")
	}
	counts := map[int32]int{}
	for _, op := range a {
		if op < 0 || op >= 1000 {
			t.Fatalf("op %d out of range", op)
		}
		counts[op]++
	}
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	if top < len(a)/20 {
		t.Errorf("hottest ID drew %d of %d queries: not skewed", top, len(a))
	}
}

// The oracle accepts the original, the two known drifts of the seed tree's
// parser, and nothing else.
func TestOracleExactCheck(t *testing.T) {
	c := newCorpus(5, 16, false)
	answer := func(i int) mint.QueryResult {
		orig := c.stamp(i)
		out := &mint.Trace{TraceID: orig.TraceID}
		for _, s := range orig.Spans {
			out.Spans = append(out.Spans, s.Clone())
		}
		return mint.QueryResult{Kind: mint.ExactHit, Trace: out}
	}
	if msg, drift := c.checkExact(3, answer(3)); msg != "" || drift != (spanDrift{}) {
		t.Fatalf("faithful answer rejected: %s %+v", msg, drift)
	}
	strAttr := func(res mint.QueryResult) (*mint.Span, string) {
		for _, s := range res.Trace.Spans {
			for k, v := range s.Attributes {
				if !v.IsNum && strings.Contains(v.Str, " ") {
					return s, k
				}
			}
		}
		t.Fatal("no string attribute with a space in the trace")
		return nil, ""
	}
	res := answer(3)
	s, k := strAttr(res)
	s.Attributes[k] = mint.Str(strings.Replace(s.Attributes[k].Str, " ", "", 1))
	if msg, drift := c.checkExact(3, res); msg != "" || drift.respaced != 1 {
		t.Errorf("respaced answer: %q %+v", msg, drift)
	}
	res = answer(3)
	s, k = strAttr(res)
	s.Attributes[k] = mint.Str("prefix <*> suffix")
	if msg, drift := c.checkExact(3, res); msg != "" || drift.unfilled != 1 {
		t.Errorf("unfilled answer: %q %+v", msg, drift)
	}
	res = answer(3)
	s, k = strAttr(res)
	s.Attributes[k] = mint.Str(s.Attributes[k].Str + "x")
	if msg, _ := c.checkExact(3, res); msg == "" {
		t.Error("altered attribute accepted")
	}
	res = answer(3)
	res.Trace.Spans[0].Duration++
	if msg, _ := c.checkExact(3, res); msg == "" {
		t.Error("altered duration accepted")
	}
	res = answer(3)
	res.Trace.Spans = res.Trace.Spans[1:]
	if msg, _ := c.checkExact(3, res); msg == "" {
		t.Error("missing span accepted")
	}
	if checkKind(true, mint.QueryResult{Kind: mint.Miss}) == "" {
		t.Error("captured ID answered as miss accepted")
	}
	if checkKind(false, answer(3)) == "" {
		t.Error("never-captured ID answered exactly accepted")
	}
	if checkKind(false, mint.QueryResult{Kind: mint.PartialHit, Trace: &mint.Trace{}}) != "" {
		t.Error("a Bloom false positive on a never-captured ID is not a failure")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "grandchild", Start: 15, End: 25, Parent: 1},
		{Name: "child", Start: 50, End: 90, Parent: 0},
		{Name: "replica", Start: 100, End: 130, Parent: -1, Replica: true},
	}
	totals := map[string]*spanTotal{}
	selfTimes(spans, totals)
	want := map[string]spanTotal{
		"root":       {Count: 1, TotalNS: 100, SelfNS: 30},
		"child":      {Count: 2, TotalNS: 70, SelfNS: 60},
		"grandchild": {Count: 1, TotalNS: 10, SelfNS: 10},
		"replica":    {Count: 1, TotalNS: 30, SelfNS: 30, Replica: true},
	}
	for name, w := range want {
		if got := totals[name]; got == nil || *got != w {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}

	tr := newTracer()
	tr.push("a", false)
	tr.push("b", false)
	tr.pop()
	tr.pop()
	tr.fold()
	tr.push("a", false)
	tr.push("b", false)
	tr.pop()
	tr.pop()
	tr.fold()
	if len(tr.kept) != 4 || tr.kept[3].Parent != 2 || tr.kept[1].Parent != 0 {
		t.Errorf("fold did not rebase parents: %+v", tr.kept)
	}
	if a, b := tr.total("a"), tr.total("b"); a.Count != 2 || b.Count != 2 || a.SelfNS != a.TotalNS-b.TotalNS {
		t.Errorf("totals a=%+v b=%+v", a, b)
	}
}

func TestLoopCountsOpsAndEnds(t *testing.T) {
	calls, ends := 0, 0
	l := loop{
		n: 10, lapEvery: 2,
		deadline: farFuture(),
		do:       func(int) { calls++ },
		lapEnd: func(done int) bool {
			if done%4 != 0 {
				return false
			}
			ends++
			return true
		},
	}
	st := l.run()
	if st.done != 10 || calls != 10 || st.ends != 2 || ends != 2 || len(st.lat) != 10 {
		t.Errorf("done=%d calls=%d ends=%d (lapEnd did work %d times)", st.done, calls, st.ends, ends)
	}
	if wall, _ := st.perOp(); wall != st.wall.Seconds()/10 {
		t.Errorf("perOp wall = %g, want the section's %g over 10 ops", wall, st.wall.Seconds())
	}
	open := loop{n: 5, rate: 1000, deadline: farFuture(), do: func(int) {}}
	st = open.run()
	if st.done != 5 || len(st.lag) != 5 || st.wall.Seconds() < 0.004 {
		t.Errorf("open loop: %+v", st)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	if v := judge("w", lower, []float64{100}, []float64{109}); v.Verdict != "ok" {
		t.Errorf("+9%% of 10%% bound: %s", v.Verdict)
	}
	if v := judge("w", lower, []float64{100}, []float64{111}); v.Verdict != "regressed" {
		t.Errorf("+11%% of 10%% bound: %s", v.Verdict)
	}
	if v := judge("w", higher, []float64{100}, []float64{89}); v.Verdict != "regressed" {
		t.Errorf("throughput -11%%: %s", v.Verdict)
	}
	if v := judge("w", higher, []float64{100}, []float64{150}); v.Verdict != "ok" {
		t.Errorf("a single pair cannot claim a gain: %s", v.Verdict)
	}
	noisy := []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 100}
	if v := judge("w", lower, noisy, noisy); v.Verdict != "unresolved" {
		t.Errorf("spread wider than bound: %s (spread %.2f)", v.Verdict, v.Spread)
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	better := make([]float64, len(steady))
	for i, x := range steady {
		better[i] = x * 0.9
	}
	if v := judge("w", lower, steady, better); v.Verdict != "improved" {
		t.Errorf("ten of ten pairs won by 10%%: %s", v.Verdict)
	}
}

func TestMergeTraceValue(t *testing.T) {
	got := mergeTraceValue([]string{"--workload", "x", "--trace", "1", "--seed", "3"})
	if want := []string{"--workload", "x", "--trace=1", "--seed", "3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v", got)
	}
	got = mergeTraceValue([]string{"--trace", "--seed", "3"})
	if want := []string{"--trace", "--seed", "3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v", got)
	}
}

// BENCHMARK.json is generated from the tables; this fails when someone
// edits one without the other (regenerate with `bench contract`).
func TestContractFileMatchesTables(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	contractMain(&buf)
	if !bytes.Equal(data, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go/workloads.go; run `bash bench/run.sh contract > BENCHMARK.json`")
	}
	c := buildContract()
	seen := map[string]bool{}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("bad or duplicate metric %q (%s)", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if len(c.PerLayer) > 128 || len(c.EndToEnd) > 16 || len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Errorf("contract limits: %d per-layer, %d end-to-end, %d workloads", len(c.PerLayer), len(c.EndToEnd), len(c.Workloads))
	}
	for _, w := range c.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// The smoke path runs every in-process workload at 1/50 counts through the
// same code as a full run, so the harness cannot rot between full runs.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes a few seconds")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--smoke", "--seed", "11", "--out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	first := readSmoke(t, out)
	want := []string{"capture_serial", "query_readonly", "mixed_durable"}
	if len(first.Runs) != len(want) {
		t.Fatalf("%d runs, want %d", len(first.Runs), len(want))
	}
	for i, r := range first.Runs {
		if r.Workload != want[i] || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("run %d: %s correct=%v failed=%d attempted=%d %v", i, r.Workload, r.Correct, r.Failed, r.Attempted, r.Violations)
		}
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
				t.Errorf("%s: metric %s = %+v", r.Workload, d.Name, v)
			}
		}
	}
	// Same seed, same inputs: the count-based metrics of the single-client
	// workloads repeat exactly.
	stdout.Reset()
	if code := realMain([]string{"--smoke", "--seed", "11", "--out", out, "--workload", "capture_serial"}, &stdout, &stderr); code != 0 {
		t.Fatalf("second smoke run exited %d: %s", code, stderr.String())
	}
	again := readSmoke(t, out).Runs[0]
	for _, m := range []string{"storage_ratio", "network_ratio", "exact_hit_ratio"} {
		if a, b := first.Runs[0].Metrics[m].Value, again.Metrics[m].Value; a != b {
			t.Errorf("%s: %v then %v for the same seed", m, a, b)
		}
	}
	// A single run ends with the contract's result line.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("result line keys: %v", last)
	}
}

func farFuture() time.Time { return time.Now().Add(time.Hour) }

func readSmoke(t *testing.T, dir string) resultFile {
	t.Helper()
	f, err := readResults(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}
